// Package sim runs predictors over branch traces and accounts accuracy,
// both overall and per static branch. Per-branch accounting is the
// workhorse of the paper: every "hypothetical predictor" in sections 3.6.3
// and 4.2.2 is a per-static-branch combination of two real predictors'
// accuracies, and the classifications of section 5 compare per-branch
// correct counts across predictors.
//
// The package has two kinds of entry point — Simulate for per-branch
// Results (and Timelines), SimulateSweep for whole config grids — and
// Simulate has a streaming twin, SimulateBlocks, that reads a
// trace.BlockSource in bounded memory (bpsim -stream). Simulate feeds
// the trace's memoized Packed view to SimulateBlocks' per-block step as
// one zero-copy block, so the pair is one driver with two block sources.
// SimulateSweep takes in-memory traces only.
// There are two execution engines with pinned-identical results:
//
//   - the reference loop (Options.ForceReference) — one Predict/Update
//     interface call pair per dynamic branch on records rebuilt from the
//     packed columns — which is the executable specification;
//   - the columnar fast path, taken transparently for every predictor
//     implementing bp.KernelPredictor (and every grid implementing
//     bp.SweepKernel): the dense int32 branch IDs and taken/backward
//     bitsets stream through the batched SimulateBlock (SweepBlock)
//     kernel.
//
// Either way per-branch correct counts accumulate in a flat slice
// indexed by dense ID. Differential tests (kernel_test.go,
// differential_test.go, and the experiments package's report
// byte-identity test) prove the two engines bit-identical: same totals,
// same per-branch accounts, same report bytes.
//
// The drivers report which engine each predictor engaged into an
// obs.Registry (Options.Observer, defaulting to the process registry):
// counters sim.records, sim.runs.{fastpath,reference}, and
// sim.{fastpath,reference}.<predictor>. The counts depend only on the
// work requested, never on scheduling or chunking, so snapshots are
// identical at any parallelism.
package sim

import (
	"fmt"
	"math/bits"
	"runtime"
	"sort"

	"branchcorr/internal/obs"
	"branchcorr/internal/trace"
)

// BranchAcc is the prediction record of one static branch under one
// predictor.
type BranchAcc struct {
	Correct int
	Total   int
}

// Accuracy returns the branch's prediction accuracy in [0,1].
func (b BranchAcc) Accuracy() float64 {
	if b.Total == 0 {
		return 0
	}
	return float64(b.Correct) / float64(b.Total)
}

// Result is the outcome of running one predictor over one trace.
type Result struct {
	Predictor string
	Trace     string
	Correct   int
	Total     int
	PerBranch map[trace.Addr]*BranchAcc
}

// Accuracy returns the overall prediction accuracy in [0,1].
func (r *Result) Accuracy() float64 {
	if r.Total == 0 {
		return 0
	}
	return float64(r.Correct) / float64(r.Total)
}

// Mispredictions returns the number of mispredicted dynamic branches.
func (r *Result) Mispredictions() int { return r.Total - r.Correct }

// Branch returns the accounting entry for pc (zero value if the branch
// never executed).
func (r *Result) Branch(pc trace.Addr) BranchAcc {
	if b := r.PerBranch[pc]; b != nil {
		return *b
	}
	return BranchAcc{}
}

// String summarizes the result, e.g. "gshare(16) on gcc: 92.27% (25903086 branches)".
func (r *Result) String() string {
	return fmt.Sprintf("%s on %s: %.2f%% (%d branches)",
		r.Predictor, r.Trace, 100*r.Accuracy(), r.Total)
}

// newResult allocates an empty result.
func newResult(predictor, traceName string) *Result {
	return &Result{
		Predictor: predictor,
		Trace:     traceName,
		PerBranch: make(map[trace.Addr]*BranchAcc),
	}
}

// Timeline is a predictor's accuracy over consecutive equal-size spans
// of a trace, exposing warmup/training behavior: the first buckets show
// the cold predictor, the tail its steady state.
type Timeline struct {
	Predictor string
	Bucket    int       // dynamic branches per bucket
	Accuracy  []float64 // per-bucket accuracy (last bucket may be partial)
}

// Options configures one simulation call. The zero value is the common
// case: sequential, no timelines, fastest engine per predictor, metrics
// into the process-wide default registry.
type Options struct {
	// Parallel is the worker budget for fanning independent work across
	// the runner pool. In Simulate and SimulateBlocks it bounds
	// concurrent predictor runs (one cell per predictor per block;
	// predictors are independent, the block is read-only). In
	// SimulateSweep it bounds config shards: the grid splits into up to
	// Parallel contiguous sub-grids (bp.SweepGrid.Shard), each replaying
	// on its own core, and the per-config counts compose exactly. 0 or 1
	// runs sequentially; negative selects runtime.GOMAXPROCS(0). Results
	// are bit-identical at every setting.
	Parallel int
	// BucketSize, when positive, additionally records each predictor's
	// accuracy per bucket of this many dynamic branches (Outcome.Timelines).
	BucketSize int
	// ForceReference pins every predictor to the per-record reference
	// loop, bypassing the columnar kernels — the differential tests'
	// baseline engine.
	ForceReference bool
	// PerBranch makes SimulateSweep account every config per static
	// branch as well: SweepOutcome.Results then holds one Result per
	// config, shaped as Simulate's. Fused grids count per branch when
	// bp.CountsBranches holds; any other grid runs per config. Simulate
	// and SimulateBlocks always account per branch and ignore it.
	PerBranch bool
	// Hits makes Simulate keep each predictor's per-record hit column as
	// well (Outcome.Hits): bit i is set iff the predictor predicted record
	// i correctly. Both engines write it: the kernel through its column
	// loop (bp.SimulateColumn), the reference loop per record. A predictor
	// whose kernel writes no column (bp.HasColumn) then runs on the
	// reference loop. SimulateBlocks and SimulateSweep ignore it.
	Hits bool
	// Observer receives the engine-engagement counters; nil selects
	// obs.Default().
	Observer *obs.Registry
}

// workers resolves the Parallel budget: non-negative values pass
// through, negative selects runtime.GOMAXPROCS(0).
func (o Options) workers() int {
	if o.Parallel < 0 {
		return runtime.GOMAXPROCS(0)
	}
	return o.Parallel
}

// Outcome carries everything one Simulate or SimulateBlocks call produced, in predictor
// argument order.
type Outcome struct {
	Results []*Result
	// Timelines is non-nil only when Options.BucketSize > 0.
	Timelines []*Timeline
	// Hits is non-nil only when Simulate ran with Options.Hits: each
	// predictor's hit column, one bit per record (bit i of word i/64).
	Hits [][]uint64
}

// HitTimeline is the Timeline of a run whose hit column is hits (one
// bit per record, n records): each bucket's accuracy is the popcount of
// its bits over its length, so it equals the Timeline the run would
// have recorded with Options.BucketSize = bucket, trailing partial
// bucket included.
func HitTimeline(predictor string, hits []uint64, n, bucket int) *Timeline {
	tl := &Timeline{Predictor: predictor, Bucket: bucket}
	for lo := 0; lo < n; lo += bucket {
		hi := min(lo+bucket, n)
		tl.Accuracy = append(tl.Accuracy, float64(onesIn(hits, lo, hi))/float64(hi-lo))
	}
	return tl
}

// onesIn counts the set bits of hits in bit positions [lo, hi).
func onesIn(hits []uint64, lo, hi int) int {
	if lo >= hi {
		return 0
	}
	first, last := lo>>6, (hi-1)>>6
	head := ^uint64(0) << (uint(lo) & 63)
	tail := ^uint64(0) >> (63 - (uint(hi-1) & 63))
	if first == last {
		return bits.OnesCount64(hits[first] & head & tail)
	}
	n := bits.OnesCount64(hits[first]&head) + bits.OnesCount64(hits[last]&tail)
	for _, w := range hits[first+1 : last] {
		n += bits.OnesCount64(w)
	}
	return n
}

// CombineMax builds the paper's hypothetical per-branch combiner: for
// every static branch it uses whichever of a or b predicted that branch
// more accurately (section 3.6.3's "gshare w/ Corr" uses the 1-branch
// selective predictor where it beats gshare, else gshare). Both results
// must come from the same trace; per-branch totals must agree.
func CombineMax(name string, a, b *Result) *Result {
	out := newResult(name, a.Trace)
	for pc, ba := range a.PerBranch {
		bb := b.Branch(pc)
		best := ba.Correct
		if bb.Correct > best {
			best = bb.Correct
		}
		out.PerBranch[pc] = &BranchAcc{Correct: best, Total: ba.Total}
		out.Correct += best
		out.Total += ba.Total
	}
	return out
}

// CombineSelect builds a hypothetical combiner with an explicit per-branch
// assignment: branches for which useA returns true score with a, all
// others with b (section 4.2.2's "PAs w/ Loop" uses the loop predictor for
// loop-class branches and PAs for the rest).
func CombineSelect(name string, a, b *Result, useA func(trace.Addr) bool) *Result {
	out := newResult(name, a.Trace)
	for pc, ba := range a.PerBranch {
		src := b.Branch(pc)
		if useA(pc) {
			src = *ba
		}
		out.PerBranch[pc] = &BranchAcc{Correct: src.Correct, Total: ba.Total}
		out.Correct += src.Correct
		out.Total += ba.Total
	}
	return out
}

// DiffPercentiles computes the Figure 9 curve: per static branch the
// accuracy difference a−b (in percentage points), expanded over dynamic
// executions and sorted ascending; it returns the difference at each
// requested percentile of dynamic branches (percentiles in [0,100]).
// Branches with equal differences order by PC, so the curve is
// deterministic regardless of map iteration order, and all percentiles
// are answered in a single cumulative sweep over the sorted differences.
func DiffPercentiles(a, b *Result, percentiles []float64) []float64 {
	type branchDiff struct {
		pc     trace.Addr
		diff   float64
		weight int
	}
	diffs := make([]branchDiff, 0, len(a.PerBranch))
	totalWeight := 0
	for pc, ba := range a.PerBranch {
		bb := b.Branch(pc)
		d := 100 * (ba.Accuracy() - bb.Accuracy())
		diffs = append(diffs, branchDiff{pc: pc, diff: d, weight: ba.Total})
		totalWeight += ba.Total
	}
	sort.Slice(diffs, func(i, j int) bool {
		if diffs[i].diff != diffs[j].diff {
			return diffs[i].diff < diffs[j].diff
		}
		return diffs[i].pc < diffs[j].pc
	})
	out := make([]float64, len(percentiles))
	if totalWeight == 0 {
		return out
	}
	// Percentiles whose cumulative-weight target is never reached (only
	// possible above 100) report the largest difference.
	for i := range out {
		out[i] = diffs[len(diffs)-1].diff
	}
	// Answer the percentiles smallest-target-first while sweeping the
	// sorted differences once: each percentile resolves at the first
	// branch whose cumulative dynamic weight reaches its target.
	order := make([]int, len(percentiles))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(i, j int) bool {
		return percentiles[order[i]] < percentiles[order[j]]
	})
	cum, next := 0, 0
	for _, d := range diffs {
		cum += d.weight
		for next < len(order) &&
			percentiles[order[next]]/100*float64(totalWeight) <= float64(cum) {
			out[order[next]] = d.diff
			next++
		}
		if next == len(order) {
			break
		}
	}
	return out
}
