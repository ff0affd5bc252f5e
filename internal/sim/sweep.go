package sim

import (
	"fmt"

	"branchcorr/internal/bp"
	"branchcorr/internal/obs"
	"branchcorr/internal/trace"
)

// This file is the sweep engine: whole config grids — the shape of every
// figure in the paper — simulated in one call. Grids with a fused kernel
// (bp.SweepKernel) update every config from a single walk over the
// packed columns; grids without one fall back to per-config simulation
// inside the same call, each config on its own best engine. The
// differential tests pin both engines bit-identical, per config, to
// independent Simulate runs. As with Simulate, the in-memory and
// streamed entry points share one per-block step (blockSweeper) and
// differ only in their block source.
//
// On top of fusion sits config sharding (Options.Parallel > 1): the
// grid splits into contiguous sub-grids (bp.SweepSharder), one runner
// cell per shard per block, each replaying the identical record stream
// against its own fresh state. Configs of one grid share no counter
// state, so each shard's per-config counts land in a disjoint slice of
// the output vector and the composed result is byte-identical to the
// sequential run — the scheduler only ever changes who computes a count,
// never the count (pinned by the shard differential tests under -race).

// SweepOutcome is everything one SimulateSweep call produced: one
// correct-prediction count per grid config, in grid order, over a
// common record total.
type SweepOutcome struct {
	Grid    string   // grid name (bp.SweepGrid.GridName)
	Trace   string   // trace name
	Configs []string // per-config labels, grid order
	Correct []int64  // per-config correct predictions
	Total   int      // dynamic branches simulated (same for every config)
}

// Accuracy returns config c's prediction accuracy in [0,1].
func (o *SweepOutcome) Accuracy(c int) float64 {
	if o.Total == 0 {
		return 0
	}
	return float64(o.Correct[c]) / float64(o.Total)
}

// newSweepOutcome shapes an outcome for the grid with zeroed counts.
func newSweepOutcome(grid bp.SweepGrid, traceName string) *SweepOutcome {
	names := grid.ConfigNames()
	return &SweepOutcome{
		Grid:    grid.GridName(),
		Trace:   traceName,
		Configs: names,
		Correct: make([]int64, len(names)),
	}
}

// sweepAccount reports the work-proportional sweep counters: they
// depend only on (trace length, grid, options), never on scheduling or
// chunking, so snapshots stay deterministic.
func sweepAccount(reg *obs.Registry, grid string, ncfg, records int, fused bool) {
	reg.Counter("sim.sweep.configs").Add(int64(ncfg))
	reg.Counter("sim.sweep.records").Add(int64(records))
	reg.Counter("sim.sweep.predictions").Add(int64(ncfg) * int64(records))
	if fused {
		reg.Counter("sim.sweep.runs.fused").Inc()
		reg.Counter("sim.sweep.fused." + grid).Inc()
	} else {
		reg.Counter("sim.sweep.runs.fallback").Inc()
		reg.Counter("sim.sweep.fallback." + grid).Inc()
	}
}

// sweepShards resolves how many config shards a sweep call runs:
// 1 (sequential) unless the options grant more than one worker and the
// grid has more than one config, else min(workers, configs).
func sweepShards(opts Options, ncfg int) int {
	w := opts.workers()
	if w <= 1 || ncfg <= 1 {
		return 1
	}
	return min(w, ncfg)
}

// sweepShard is one scheduled slice of a sharded sweep: the sub-grid
// covering configs [lo, hi) of the parent, in grid order.
type sweepShard struct {
	lo, hi   int
	grid     bp.SweepGrid
	degraded bool // parent would fuse but this shard cannot
}

// planShards partitions the grid's ncfg configs into n balanced
// contiguous shards. Grids implementing bp.SweepSharder produce fused
// sub-grids; any other grid degrades to independent per-config
// simulation via bp.PredictorGrid over a slice of Configs() — exact
// either way, but the degraded shards are counted so a silently slow
// sweep is visible in the metrics (parentFused is the parent's
// effective engine: degradation is only meaningful when the parent
// would have fused).
func planShards(grid bp.SweepGrid, ncfg, n int, parentFused bool) []sweepShard {
	sharder, _ := grid.(bp.SweepSharder)
	var cfgs []bp.Predictor // lazily materialized for non-sharder grids
	shards := make([]sweepShard, 0, n)
	base, rem := ncfg/n, ncfg%n
	lo := 0
	for i := 0; i < n; i++ {
		hi := lo + base
		if i < rem {
			hi++
		}
		var sub bp.SweepGrid
		if sharder != nil {
			sub = sharder.Shard(lo, hi)
		} else {
			if cfgs == nil {
				cfgs = grid.Configs()
			}
			sub = bp.NewPredictorGrid(fmt.Sprintf("%s[%d:%d)", grid.GridName(), lo, hi), cfgs[lo:hi])
		}
		_, subFused := sub.(bp.SweepKernel)
		shards = append(shards, sweepShard{lo: lo, hi: hi, grid: sub, degraded: parentFused && !subFused})
		lo = hi
	}
	return shards
}

// shardAccount reports the shard-scheduling counters:
// sim.sweep.runs.sharded (sharded calls), sim.sweep.shards (cells
// scheduled), and sim.sweep.shards.degraded (shards that fell off the
// fused path their parent grid would have taken). All three depend only
// on (grid, options), never on scheduling.
func shardAccount(reg *obs.Registry, shards []sweepShard) {
	reg.Counter("sim.sweep.runs.sharded").Inc()
	reg.Counter("sim.sweep.shards").Add(int64(len(shards)))
	deg := 0
	for _, sh := range shards {
		if sh.degraded {
			deg++
		}
	}
	if deg > 0 {
		reg.Counter("sim.sweep.shards.degraded").Add(int64(deg))
	}
}

// SimulateSweep drives an entire config grid over the trace in one call
// and returns the per-config correct counts in grid order. When the
// grid implements bp.SweepKernel (and opts.ForceReference is unset) the
// whole grid updates from a single fused walk over the trace's memoized
// packed columns — configs × records predictions for one column pass.
// Other grids (and ForceReference runs) fall back to per-config
// simulation: each of grid.Configs() replays the trace on its own best
// engine (columnar kernel when it has one, the scalar reference loop
// otherwise; ForceReference pins the scalar loop). Both engines are
// pinned bit-identical, per config, to independent Simulate runs by the
// package's sweep differential tests.
//
// opts.Parallel > 1 shards the grid's configs across the runner pool
// (see Options.Parallel); the outcome is byte-identical at every
// setting.
//
// Engagement and volume report into opts.Observer (default
// obs.Default()): sim.sweep.runs.{fused,fallback} and per-grid
// sim.sweep.{fused,fallback}.<grid>, plus sim.sweep.configs,
// sim.sweep.records, and sim.sweep.predictions (configs × records);
// sharded calls add sim.sweep.runs.sharded, sim.sweep.shards, and
// sim.sweep.shards.degraded.
func SimulateSweep(t *trace.Trace, grid bp.SweepGrid, opts Options) *SweepOutcome {
	reg := obs.Or(opts.Observer)
	defer reg.StartSpan("sim.simulate_sweep").End()
	pt := t.Packed()
	out := newSweepOutcome(grid, t.Name())
	sweepers, fused := newSweepers(grid, opts, out.Correct, reg)
	sweepStep(sweepers, wholeBlock(pt), pt.Addrs())
	out.Total = pt.Len()
	sweepAccount(reg, out.Grid, len(out.Configs), out.Total, fused)
	return out
}

// SimulateSweepBlocks is SimulateSweep over a streaming block source:
// the whole grid advances through one bounded-memory pass, one chunk
// resident at a time, so figure-scale sweeps run in O(chunk) memory
// straight from corpus.OpenBlocks streams. Each chunk replays through
// the same per-block step SimulateSweep uses; with opts.Parallel > 1
// the grid shards as in SimulateSweep and every shard finishes a chunk
// before the next one loads (the source reuses its buffers). Results
// are bit-identical to SimulateSweep over the equivalent in-memory trace
// at any chunk size and any Parallel setting, pinned by the streamed
// sweep differential tests.
//
// On top of SimulateSweep's counters the pass reports sim.sweep.blocks
// and the peak-resident-chunk gauge sim.stream.peak_block_bytes.
func SimulateSweepBlocks(src trace.BlockSource, grid bp.SweepGrid, opts Options) (*SweepOutcome, error) {
	reg := obs.Or(opts.Observer)
	defer reg.StartSpan("sim.simulate_sweep_blocks").End()
	out := newSweepOutcome(grid, src.Name())
	sweepers, fused := newSweepers(grid, opts, out.Correct, reg)
	for {
		blk, ok := src.Next()
		if !ok {
			break
		}
		addrs := src.Addrs()
		reg.Counter("sim.sweep.blocks").Inc()
		reg.Gauge("sim.stream.peak_block_bytes").Max(int64(blk.Bytes() + len(addrs)*4))
		sweepStep(sweepers, blk, addrs)
		out.Total += blk.Len()
	}
	if err := src.Err(); err != nil {
		return nil, err
	}
	sweepAccount(reg, out.Grid, len(out.Configs), out.Total, fused)
	return out, nil
}

// newSweepers resolves a sweep call's schedule: one blockSweeper over
// the whole grid, or — when the options grant more than one worker —
// one per config shard, each owning its slice of correct. fused reports
// the grid's effective engine.
func newSweepers(grid bp.SweepGrid, opts Options, correct []int64, reg *obs.Registry) (sweepers []*blockSweeper, fused bool) {
	_, fused = grid.(bp.SweepKernel)
	fused = fused && !opts.ForceReference
	n := sweepShards(opts, len(correct))
	if n <= 1 {
		return []*blockSweeper{newBlockSweeper(grid, opts.ForceReference, correct)}, fused
	}
	shards := planShards(grid, len(correct), n, fused)
	shardAccount(reg, shards)
	sweepers = make([]*blockSweeper, len(shards))
	for i, sh := range shards {
		sweepers[i] = newBlockSweeper(sh.grid, opts.ForceReference, correct[sh.lo:sh.hi:sh.hi])
	}
	return sweepers, fused
}

// sweepStep replays one block through every shard's sweeper: in place
// for a single sweeper, else one runner cell per shard, all holding a
// worker at once. It returns once every shard has consumed the block.
func sweepStep(sweepers []*blockSweeper, blk trace.Block, addrs []trace.Addr) {
	fanOut("sweep-shard", len(sweepers), len(sweepers), func(i int) { sweepers[i].step(blk, addrs) })
}

// blockSweeper is the per-block step of one grid (or config shard),
// adding each config's per-block correct counts into its int64 vector
// (so stream length is unbounded). It resolves the grid's engine once —
// fused kernel, or per-config predictors each on its own best engine.
type blockSweeper struct {
	kernel  bp.SweepKernel
	preds   []bp.Predictor
	kernels []bp.KernelPredictor
	scratch []int32
	perID   []int32 // shared per-branch scratch; only the totals matter
	correct []int64
}

func newBlockSweeper(grid bp.SweepGrid, force bool, correct []int64) *blockSweeper {
	s := &blockSweeper{correct: correct, scratch: make([]int32, len(correct))}
	if k, ok := grid.(bp.SweepKernel); ok && !force {
		s.kernel = k
		return s
	}
	s.preds = grid.Configs()
	s.kernels = make([]bp.KernelPredictor, len(s.preds))
	for c, p := range s.preds {
		if kp, ok := p.(bp.KernelPredictor); ok && !force {
			s.kernels[c] = kp
		}
	}
	return s
}

// step replays one block through every config. The block and addrs
// views are only valid for the duration of the call (sources reuse
// their buffers).
func (s *blockSweeper) step(blk trace.Block, addrs []trace.Addr) {
	kblk := bp.KernelBlock{IDs: blk.IDs, Taken: blk.Taken, Back: blk.Back, Addrs: addrs, Lo: 0, Hi: blk.Len()}
	if s.kernel != nil {
		for c := range s.scratch {
			s.scratch[c] = 0
		}
		s.kernel.SweepBlock(kblk, s.scratch)
		for c, v := range s.scratch {
			s.correct[c] += int64(v)
		}
		return
	}
	s.perID = growInt32(s.perID, len(addrs))
	for c, p := range s.preds {
		if kp := s.kernels[c]; kp != nil {
			s.correct[c] += int64(kp.SimulateBlock(kblk, s.perID))
		} else {
			s.correct[c] += int64(referenceSegment(p, blk, addrs, 0, blk.Len(), s.perID))
		}
	}
}
