package sim

import (
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
// independent Simulate runs. A sweep replays the trace's packed columns
// as one whole-trace block through a blockSweeper per config shard.
//
// On top of fusion sits config sharding (Options.Parallel > 1): the
// grid splits into contiguous sub-grids (bp.SweepGrid.Shard), one runner
// cell per shard, each replaying the identical record stream
// against its own fresh state. Configs of one grid share no counter
// state, so each shard's per-config counts land in a disjoint slice of
// the output vector and the composed result is byte-identical to the
// sequential run — the scheduler only ever changes who computes a count,
// never the count (pinned by the shard differential tests under -race).
//
// Per-branch sweeps (Options.PerBranch) also count every config's
// correct predictions per dense branch ID, into per-config slices that
// shards split exactly as they split the totals; fused grids count them
// through bp.BranchSweepKernel, and the per-config fallback counts them
// anyway.

// SweepOutcome is everything one SimulateSweep call produced: one
// correct-prediction count per grid config, in grid order, over a
// common record total, and under Options.PerBranch one per-branch
// Result per config.
type SweepOutcome struct {
	Grid    string   // grid name (bp.SweepGrid.GridName)
	Trace   string   // trace name
	Configs []string // per-config labels, grid order
	Correct []int64  // per-config correct predictions
	Total   int      // dynamic branches simulated (same for every config)
	// Results holds one Result per config, in grid order, shaped as
	// Simulate's, when the call set Options.PerBranch; nil otherwise.
	Results []*Result
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
func sweepAccount(reg *obs.Registry, grid bp.SweepGrid, opts Options, out *SweepOutcome) {
	ncfg, records := len(out.Configs), out.Total
	reg.Counter("sim.sweep.configs").Add(int64(ncfg))
	reg.Counter("sim.sweep.records").Add(int64(records))
	reg.Counter("sim.sweep.predictions").Add(int64(ncfg) * int64(records))
	fused, lost := sweepEngine(grid, opts)
	if fused {
		reg.Counter("sim.sweep.runs.fused").Inc()
		reg.Counter("sim.sweep.fused." + out.Grid).Inc()
	} else {
		reg.Counter("sim.sweep.runs.fallback").Inc()
		reg.Counter("sim.sweep.fallback." + out.Grid).Inc()
	}
	if opts.PerBranch {
		reg.Counter("sim.sweep.runs.perbranch").Inc()
		if lost {
			reg.Counter("sim.sweep.perbranch.fallback." + out.Grid).Inc()
		}
	}
}

// sweepEngine resolves whether grid runs fused under opts. A per-branch
// request needs a grid that counts per branch (bp.CountsBranches); lost
// reports a fused grid that such a request pushed onto per-config
// simulation because it cannot.
func sweepEngine(grid bp.SweepGrid, opts Options) (fused, lost bool) {
	if opts.ForceReference {
		return false, false
	}
	_, kernel := grid.(bp.SweepKernel)
	if !opts.PerBranch {
		return kernel, false
	}
	fused = bp.CountsBranches(grid)
	return fused, kernel && !fused
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
	lo, hi int
	grid   bp.SweepGrid
}

// planShards partitions the grid's ncfg configs into n balanced
// contiguous shards, each the grid's own Shard over its range (a fused
// grid's shards are fused grids, so every shard runs on the parent's
// engine).
func planShards(grid bp.SweepGrid, ncfg, n int) []sweepShard {
	shards := make([]sweepShard, 0, n)
	base, rem := ncfg/n, ncfg%n
	lo := 0
	for i := 0; i < n; i++ {
		hi := lo + base
		if i < rem {
			hi++
		}
		shards = append(shards, sweepShard{lo: lo, hi: hi, grid: grid.Shard(lo, hi)})
		lo = hi
	}
	return shards
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
// sharded calls add sim.sweep.runs.sharded and sim.sweep.shards (cells
// scheduled), which depend only on (grid, options), never on
// scheduling.
//
// opts.PerBranch adds SweepOutcome.Results: each config's correct
// predictions per static branch, counted by the fused kernel when
// bp.CountsBranches holds for the grid and by per-config simulation
// otherwise.
// Per-branch calls count sim.sweep.runs.perbranch, and a fused grid that
// cannot count per branch adds sim.sweep.perbranch.fallback.<grid>.
func SimulateSweep(t *trace.Trace, grid bp.SweepGrid, opts Options) *SweepOutcome {
	reg := obs.Or(opts.Observer)
	defer reg.StartSpan("sim.simulate_sweep").End()
	pt := t.Packed()
	out := newSweepOutcome(grid, t.Name())
	branches := newBranchCounts(opts, len(out.Configs))
	sweepers := newSweepers(grid, opts, out.Correct, branches, reg)
	// One runner cell per shard, all holding a worker at once; a single
	// sweeper runs in place.
	fanOut("sweep-shard", len(sweepers), len(sweepers), func(i int) { sweepers[i].step(wholeBlock(pt), pt.Addrs()) })
	out.Total = pt.Len()
	out.sweepResults(branches, pt.Addrs(), pt.Counts())
	sweepAccount(reg, grid, opts, out)
	return out
}

// newBranchCounts allocates a per-branch call's per-config per-dense-ID
// correct counts: one slice per config, sized by the sweeper to the
// intern table. It returns nil for totals-only calls.
func newBranchCounts(opts Options, ncfg int) [][]int32 {
	if !opts.PerBranch {
		return nil
	}
	return make([][]int32, ncfg)
}

// sweepResults fills out.Results from per-config per-dense-ID correct
// counts (nil for totals-only calls, which leave Results nil). counts[id]
// is dense ID id's dynamic occurrence count.
func (o *SweepOutcome) sweepResults(branches [][]int32, addrs []trace.Addr, counts []int32) {
	if branches == nil {
		return
	}
	o.Results = make([]*Result, len(o.Configs))
	for c, name := range o.Configs {
		o.Results[c] = BranchResult(name, o.Trace, addrs, branches[c], counts)
	}
}

// newSweepers resolves a sweep call's schedule: one blockSweeper over
// the whole grid, or — when the options grant more than one worker —
// one per config shard, each owning its slices of correct and branches.
func newSweepers(grid bp.SweepGrid, opts Options, correct []int64, branches [][]int32, reg *obs.Registry) []*blockSweeper {
	n := sweepShards(opts, len(correct))
	if n <= 1 {
		return []*blockSweeper{newBlockSweeper(grid, opts, correct, branches)}
	}
	shards := planShards(grid, len(correct), n)
	reg.Counter("sim.sweep.runs.sharded").Inc()
	reg.Counter("sim.sweep.shards").Add(int64(len(shards)))
	sweepers := make([]*blockSweeper, len(shards))
	for i, sh := range shards {
		var sub [][]int32
		if branches != nil {
			sub = branches[sh.lo:sh.hi:sh.hi]
		}
		sweepers[i] = newBlockSweeper(sh.grid, opts, correct[sh.lo:sh.hi:sh.hi], sub)
	}
	return sweepers
}

// blockSweeper is the per-block step of one grid (or config shard),
// adding each config's correct counts into its int64 vector. It
// resolves the grid's engine once — fused kernel, or per-config
// predictors each on its own best engine. Per-branch calls also add
// each config's per-dense-ID counts into its caller-owned slice of
// branches, which step sizes to the intern table.
type blockSweeper struct {
	kernel   bp.SweepKernel
	preds    []bp.Predictor
	kernels  []bp.KernelPredictor
	scratch  []int32
	perID    []int32   // shared per-branch scratch of a totals-only fallback
	branches [][]int32 // per config per-dense-ID counts; nil for totals-only calls
	correct  []int64
}

func newBlockSweeper(grid bp.SweepGrid, opts Options, correct []int64, branches [][]int32) *blockSweeper {
	s := &blockSweeper{correct: correct, branches: branches, scratch: make([]int32, len(correct))}
	if fused, _ := sweepEngine(grid, opts); fused {
		s.kernel = grid.(bp.SweepKernel)
		return s
	}
	s.preds = grid.Configs()
	s.kernels = make([]bp.KernelPredictor, len(s.preds))
	for c, p := range s.preds {
		if kp, ok := p.(bp.KernelPredictor); ok && !opts.ForceReference {
			s.kernels[c] = kp
		}
	}
	return s
}

// step replays one block through every config.
func (s *blockSweeper) step(blk trace.Block, addrs []trace.Addr) {
	kblk := bp.KernelBlock{IDs: blk.IDs, Taken: blk.Taken, Back: blk.Back, Addrs: addrs, Lo: 0, Hi: blk.Len()}
	for c := range s.branches {
		s.branches[c] = growInt32(s.branches[c], len(addrs))
	}
	if s.kernel != nil {
		for c := range s.scratch {
			s.scratch[c] = 0
		}
		if s.branches != nil {
			s.kernel.(bp.BranchSweepKernel).SweepBlockBranches(kblk, s.scratch, s.branches)
		} else {
			s.kernel.SweepBlock(kblk, s.scratch)
		}
		for c, v := range s.scratch {
			s.correct[c] += int64(v)
		}
		return
	}
	if s.branches == nil {
		s.perID = growInt32(s.perID, len(addrs))
	}
	for c, p := range s.preds {
		perID := s.perID
		if s.branches != nil {
			perID = s.branches[c]
		}
		if kp := s.kernels[c]; kp != nil {
			s.correct[c] += int64(kp.SimulateBlock(kblk, perID))
		} else {
			s.correct[c] += int64(referenceSegment(p, blk, addrs, 0, blk.Len(), perID, nil))
		}
	}
}
