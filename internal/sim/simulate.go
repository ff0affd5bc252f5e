package sim

import (
	"context"
	"fmt"
	"strconv"

	"branchcorr/internal/bp"
	"branchcorr/internal/obs"
	"branchcorr/internal/runner"
	"branchcorr/internal/trace"
)

// This file is the simulation driver. Simulate and SimulateBlocks differ
// only in where their blocks come from: Simulate hands the trace's
// memoized Packed view over as one zero-copy block, SimulateBlocks
// replays a BlockSource chunk by chunk. Both step every predictor
// through the same per-block simulator, so engine choice, timeline
// bucketing, and the reference loop exist exactly once.

// Simulate drives every predictor over the trace (each predictor sees
// the identical committed branch stream) and returns one Result — and,
// when opts.BucketSize > 0, one Timeline — per predictor, in argument
// order. Each predictor independently takes the columnar fast path over
// the trace's memoized Packed view when it implements
// bp.KernelPredictor (unless opts.ForceReference); predictors are
// mutually independent, so engine choice and scheduling never change
// the Outcome.
func Simulate(t *trace.Trace, predictors []bp.Predictor, opts Options) *Outcome {
	reg := obs.Or(opts.Observer)
	out := newOutcome(predictors, opts)
	if len(predictors) == 0 {
		return out
	}
	defer reg.StartSpan("sim.simulate").End()
	pt := t.Packed()
	sims := newSimulators(predictors, opts, reg)
	if opts.Hits {
		out.Hits = make([][]uint64, len(sims))
		for i, s := range sims {
			s.hits = make([]uint64, (pt.Len()+63)/64)
			out.Hits[i] = s.hits
		}
	}
	stepAll(sims, wholeBlock(pt), pt.Addrs(), opts.workers())
	finishAll(out, sims, t.Name(), pt.Addrs(), pt.Counts(), reg)
	return out
}

// SimulateBlocks drives every predictor over a streaming block source in
// bounded memory: one pass, one chunk resident at a time, so trace
// length is limited by disk, not RAM. Engines, timelines, and
// opts.Parallel work exactly as in Simulate, applied chunk by chunk: the
// predictors fan out across the runner pool per chunk and meet at a
// barrier before the next chunk loads (the source reuses its buffers).
// Per-branch accounting accumulates in flat slices indexed by dense ID
// that grow with the source's intern table, so resident state is
// O(chunk + static branch sites + #predictors).
//
// Results are bit-identical to Simulate over the equivalent in-memory
// trace (pinned by the package's streamed-vs-in-memory differential
// tests): the kernel contract makes chunked replay observationally equal
// to one full-trace call, and the reference loop sees the identical
// record sequence.
//
// The pass reports into opts.Observer (default obs.Default()): the same
// per-predictor engine counters Simulate uses, plus sim.stream.blocks
// and the peak-resident-chunk gauge sim.stream.peak_block_bytes.
func SimulateBlocks(src trace.BlockSource, predictors []bp.Predictor, opts Options) (*Outcome, error) {
	opts.Hits = false
	reg := obs.Or(opts.Observer)
	out := newOutcome(predictors, opts)
	if len(predictors) == 0 {
		return out, src.Err()
	}
	defer reg.StartSpan("sim.simulate_blocks").End()
	sims := newSimulators(predictors, opts, reg)
	var counts []int32 // per dense ID dynamic occurrence count
	for {
		blk, ok := src.Next()
		if !ok {
			break
		}
		addrs := src.Addrs()
		reg.Counter("sim.stream.blocks").Inc()
		reg.Gauge("sim.stream.peak_block_bytes").Max(int64(blk.Bytes() + len(addrs)*4))
		counts = countIDs(counts, blk, len(addrs))
		stepAll(sims, blk, addrs, opts.workers())
	}
	if err := src.Err(); err != nil {
		return nil, err
	}
	finishAll(out, sims, src.Name(), src.Addrs(), counts, reg)
	return out, nil
}

// newOutcome shapes an Outcome for the predictors, with a Timelines
// slot per predictor when the options request buckets.
func newOutcome(predictors []bp.Predictor, opts Options) *Outcome {
	out := &Outcome{Results: make([]*Result, len(predictors))}
	if opts.BucketSize > 0 {
		out.Timelines = make([]*Timeline, len(predictors))
	}
	return out
}

// wholeBlock views a packed trace as one zero-copy block. A packed
// view's bitsets are zero-padded, so at offset 0 the block-relative bits
// are the absolute ones.
func wholeBlock(pt *trace.Packed) trace.Block {
	return trace.Block{IDs: pt.IDs(), Taken: pt.TakenWords(), Back: pt.BackwardWords()}
}

// simulator is the per-block step of one predictor. Its engine is fixed
// once — the predictor's columnar kernel, or the reference loop — and
// each block replays in segments that end at timeline bucket
// boundaries, so kernel calls never straddle a bucket. Per-branch
// correct counts accumulate in a flat slice indexed by dense ID, and
// when hits is non-nil (Simulate with Options.Hits) each segment also
// writes its hit bits there.
type simulator struct {
	p       bp.Predictor
	kernel  bp.KernelPredictor // nil selects the reference loop
	bucket  int                // timeline bucket size; <= 0 records none
	tl      *Timeline
	correct []int32  // per dense ID
	hits    []uint64 // bit i = record i predicted correctly
	open    int      // correct predictions in the open bucket
	pos     int      // records replayed so far
}

// newSimulators fixes each predictor's engine and accounts the
// engagement: the kernel, unless the options force the reference loop
// or ask for a hit column the kernel cannot write. The counters depend
// only on (predictor, options), so snapshots are identical at any
// parallelism and chunk size.
func newSimulators(predictors []bp.Predictor, opts Options, reg *obs.Registry) []*simulator {
	sims := make([]*simulator, len(predictors))
	for i, p := range predictors {
		s := &simulator{p: p, bucket: opts.BucketSize}
		if k, ok := p.(bp.KernelPredictor); ok && !opts.ForceReference && (!opts.Hits || bp.HasColumn(p)) {
			s.kernel = k
			reg.Counter("sim.runs.fastpath").Inc()
			reg.Counter("sim.fastpath." + p.Name()).Inc()
		} else {
			reg.Counter("sim.runs.reference").Inc()
			reg.Counter("sim.reference." + p.Name()).Inc()
		}
		if s.bucket > 0 {
			s.tl = &Timeline{Predictor: p.Name(), Bucket: s.bucket}
		}
		sims[i] = s
	}
	return sims
}

// step replays one block. The block and addrs views are only valid for
// the duration of the call (sources reuse their buffers).
func (s *simulator) step(blk trace.Block, addrs []trace.Addr) {
	s.correct = growInt32(s.correct, len(addrs))
	for lo := 0; lo < blk.Len(); {
		hi := blk.Len()
		if s.bucket > 0 {
			hi = min(hi, lo+s.bucket-(s.pos+lo)%s.bucket)
		}
		var c int
		kblk := bp.KernelBlock{IDs: blk.IDs, Taken: blk.Taken, Back: blk.Back, Addrs: addrs, Lo: lo, Hi: hi}
		switch {
		case s.kernel == nil:
			c = referenceSegment(s.p, blk, addrs, lo, hi, s.correct, s.hits)
		case s.hits == nil:
			c = s.kernel.SimulateBlock(kblk, s.correct)
		default:
			// The column loop rewrites the words the segment covers, so
			// the first word's bits for the records before lo (an earlier
			// segment's) are put back.
			keep := s.hits[lo>>6]
			c = bp.SimulateColumn(s.p, kblk, s.correct, s.hits[lo>>6:])
			s.hits[lo>>6] |= keep
		}
		s.open += c
		if s.bucket > 0 && (s.pos+hi)%s.bucket == 0 {
			s.closeBucket(s.bucket)
		}
		lo = hi
	}
	s.pos += blk.Len()
}

// closeBucket appends the open bucket's accuracy over n records.
func (s *simulator) closeBucket(n int) {
	s.tl.Accuracy = append(s.tl.Accuracy, float64(s.open)/float64(n))
	s.open = 0
}

// result closes a trailing partial bucket and assembles the Result.
// counts[id] is dense ID id's dynamic occurrence count.
func (s *simulator) result(traceName string, addrs []trace.Addr, counts []int32) (*Result, *Timeline) {
	if s.bucket > 0 && s.pos%s.bucket != 0 {
		s.closeBucket(s.pos % s.bucket)
	}
	return BranchResult(s.p.Name(), traceName, addrs, s.correct, counts), s.tl
}

// BranchResult assembles the map-shaped Result the rest of the repo
// consumes from flat per-dense-ID counts: correct[id] and counts[id] are
// dense ID id's correct predictions and dynamic occurrences, and the
// totals are their sums. Every ID occurs at least once, so the map's
// key set is exactly the set of executed branches.
func BranchResult(predictor, traceName string, addrs []trace.Addr, correct, counts []int32) *Result {
	r := newResult(predictor, traceName)
	for id, a := range addrs {
		r.PerBranch[a] = &BranchAcc{Correct: int(correct[id]), Total: int(counts[id])}
		r.Correct += int(correct[id])
		r.Total += int(counts[id])
	}
	return r
}

// stepAll replays one block through every simulator: in place when
// workers <= 1, else one runner cell per predictor. It returns once
// every predictor has consumed the block.
func stepAll(sims []*simulator, blk trace.Block, addrs []trace.Addr, workers int) {
	fanOut("sim", len(sims), workers, func(i int) { sims[i].step(blk, addrs) })
}

// finishAll writes every simulator's Result (and Timeline) into out and
// accounts the records simulated.
func finishAll(out *Outcome, sims []*simulator, traceName string, addrs []trace.Addr, counts []int32, reg *obs.Registry) {
	for i, s := range sims {
		reg.Counter("sim.records").Add(int64(s.pos))
		r, tl := s.result(traceName, addrs, counts)
		out.Results[i] = r
		if out.Timelines != nil {
			out.Timelines[i] = tl
		}
	}
}

// fanOut runs do(0..n-1) and returns when all have finished: in order on
// the calling goroutine when workers <= 1 or n <= 1, else one runner
// cell per index across up to workers workers.
func fanOut(exhibit string, n, workers int, do func(i int)) {
	if workers <= 1 || n <= 1 {
		for i := 0; i < n; i++ {
			do(i)
		}
		return
	}
	cells := make([]runner.Cell, n)
	for i := range cells {
		i := i
		cells[i] = runner.Cell{
			Exhibit:  exhibit,
			Workload: strconv.Itoa(i),
			Run: func(context.Context) error {
				do(i)
				return nil
			},
		}
	}
	if err := runner.Run(context.Background(), cells, runner.Options{Parallel: workers}); err != nil {
		// Unreachable: cells never fail and the context is never
		// cancelled; a scheduler error here is a bug, not a condition.
		panic(fmt.Sprintf("sim: %s scheduler failed: %v", exhibit, err))
	}
}

// referenceSegment replays block records [lo, hi) through the scalar
// Predict/Update loop — the reference engine, the executable
// specification the columnar kernels are pinned against — on records
// rebuilt from the columns (a Record is exactly PC, Taken, Backward),
// accumulating per-ID correct counts like a kernel call, setting bit i
// of hits (when non-nil) for each correct record i, and returning the
// segment's correct total.
func referenceSegment(p bp.Predictor, blk trace.Block, addrs []trace.Addr, lo, hi int, correct []int32, hits []uint64) int {
	c := 0
	for i := lo; i < hi; i++ {
		id := blk.IDs[i]
		rec := trace.Record{
			PC:       addrs[id],
			Taken:    blk.Taken1(i) != 0,
			Backward: blk.Back1(i) != 0,
		}
		if p.Predict(rec) == rec.Taken {
			correct[id]++
			c++
			if hits != nil {
				hits[i>>6] |= 1 << (uint(i) & 63)
			}
		}
		p.Update(rec)
	}
	return c
}

// countIDs adds the block's records to the per-dense-ID occurrence
// counts, grown to cover n interned IDs.
func countIDs(counts []int32, blk trace.Block, n int) []int32 {
	counts = growInt32(counts, n)
	for _, id := range blk.IDs {
		counts[id]++
	}
	return counts
}

// growInt32 extends s with zeroed entries up to length n, preserving the
// accumulated prefix as the source's intern table grows.
func growInt32(s []int32, n int) []int32 {
	if n <= len(s) {
		return s
	}
	if n <= cap(s) {
		return s[:n]
	}
	out := make([]int32, n, max(n, 2*cap(s)))
	copy(out, s)
	return out
}
