package sim_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"branchcorr/internal/bp"
	"branchcorr/internal/core"
	"branchcorr/internal/obs"
	"branchcorr/internal/sim"
	"branchcorr/internal/trace"
)

// Differential suite for per-branch sweeps (Options.PerBranch): every
// config's Result — totals and the whole per-branch map — must DeepEqual
// an independent ForceReference Simulate run of that config, for the
// fused per-branch kernels and the per-config fallback alike,
// sequential and config-sharded. The package is external so the grids
// can come from internal/core, which imports sim.

// perBranchTrace builds a seeded trace over many sites that come into
// play gradually: site s first executes around record s·n/sites, long
// after the records of the early sites whose refs name it. Two in three sites copy (or invert)
// the latest outcome of an earlier site, giving the oracle real
// correlations to select; the rest follow their own bias.
func perBranchTrace(seed int64, n, sites int) *trace.Trace {
	rng := rand.New(rand.NewSource(seed))
	type site struct {
		pc       trace.Addr
		src      int // correlated earlier site, or -1
		invert   bool
		bias     float64
		backward bool
	}
	ss := make([]site, sites)
	for i := range ss {
		ss[i] = site{pc: trace.Addr(0x40000 + 4*i), src: -1, bias: rng.Float64(), backward: rng.Intn(5) == 0}
		if i > 0 && rng.Intn(3) > 0 {
			ss[i].src = rng.Intn(i)
			ss[i].invert = rng.Intn(2) == 0
		}
	}
	last := make([]bool, sites)
	tr := trace.New(fmt.Sprintf("perbranch-%d", seed), 0)
	for i := 0; i < n; i++ {
		active := 1 + i*sites/n
		s := rng.Intn(active)
		if rng.Intn(4) == 0 {
			s = active - 1 // keep the newest site busy once it appears
		}
		taken := rng.Float64() < ss[s].bias
		if src := ss[s].src; src >= 0 && rng.Intn(8) > 0 {
			taken = last[src] != ss[s].invert
		}
		last[s] = taken
		tr.Append(trace.Record{PC: ss[s].pc, Taken: taken, Backward: ss[s].backward})
	}
	return tr
}

// lateAssignment names, for every site, refs to sites that first execute
// after it (and one PC that never executes), so sweeps resolve refs
// whose PCs first appear late in the trace, or never.
func lateAssignment(tr *trace.Trace, seed int64) [core.MaxSelectiveRefs + 1]core.Assignment {
	rng := rand.New(rand.NewSource(seed))
	var order []trace.Addr
	seen := map[trace.Addr]bool{}
	pt := tr.Packed()
	for i := 0; i < pt.Len(); i++ {
		r := pt.Record(i)
		if !seen[r.PC] {
			seen[r.PC] = true
			order = append(order, r.PC)
		}
	}
	var out [core.MaxSelectiveRefs + 1]core.Assignment
	for k := 1; k <= core.MaxSelectiveRefs; k++ {
		out[k] = core.Assignment{}
		for i, pc := range order {
			refs := make([]core.Ref, k)
			for j := range refs {
				ref := core.Ref{PC: order[rng.Intn(len(order))], Scheme: core.Scheme(rng.Intn(2)), Tag: uint8(rng.Intn(3))}
				switch {
				case j == 0 && i+1 < len(order):
					ref.PC = order[i+1+rng.Intn(len(order)-i-1)] // a later site
				case j == 1:
					ref.PC = 0xdead0 // never executes
				}
				refs[j] = ref
			}
			out[k][pc] = refs
		}
	}
	return out
}

// globalGrid is the report's per-branch grid shape: 1-, 2- and 3-ref
// selective predictors and the 3-ref one again in presence mode, in one
// fused selective grid.
func globalGrid(bySize [core.MaxSelectiveRefs + 1]core.Assignment) bp.SweepGrid {
	const window = 16
	var cfgs []core.SelectiveConfig
	for k := 1; k <= core.MaxSelectiveRefs; k++ {
		cfgs = append(cfgs, core.SelectiveConfig{Name: fmt.Sprintf("sel%d", k), Window: window, Assign: bySize[k]})
	}
	cfgs = append(cfgs, core.SelectiveConfig{Name: "presence-sel3", Window: window, Assign: bySize[3], Mode: core.ModePresence})
	return core.NewSelectiveSweep("global", cfgs)
}

// gshareConcat is a fused grid with no per-branch form: an IF-gshare and
// a gshare, concatenated. A per-branch request on it runs per config.
func gshareConcat() bp.SweepGrid {
	return bp.NewConcatSweep("if-gshare+gshare", bp.NewIFGshareSweep([]uint{16}), bp.NewGshareSweep([]uint{16}))
}

// referenceResults simulates each of the grid's configs on its own
// through the scalar reference loop.
func referenceResults(tr *trace.Trace, g bp.SweepGrid) []*sim.Result {
	var out []*sim.Result
	for _, p := range g.Configs() {
		out = append(out, sim.Simulate(tr, []bp.Predictor{p}, sim.Options{ForceReference: true}).Results[0])
	}
	return out
}

// samePerBranch fails unless the per-branch outcome carries one Result
// per config that DeepEquals the reference, with totals that agree.
func samePerBranch(t *testing.T, how string, got *sim.SweepOutcome, want []*sim.Result) {
	t.Helper()
	if len(got.Results) != len(want) {
		t.Fatalf("%s: %d results, want %d", how, len(got.Results), len(want))
	}
	for c, w := range want {
		r := got.Results[c]
		if !reflect.DeepEqual(r, w) {
			t.Errorf("%s: config %s: per-branch result differs from the reference (%d/%d vs %d/%d correct)",
				how, w.Predictor, r.Correct, r.Total, w.Correct, w.Total)
		}
		if got.Correct[c] != int64(w.Correct) || got.Total != w.Total {
			t.Errorf("%s: config %s: totals %d/%d, want %d/%d", how, w.Predictor, got.Correct[c], got.Total, w.Correct, w.Total)
		}
	}
}

// TestPerBranchSweepMatchesReference is the per-branch sweep's
// acceptance differential.
func TestPerBranchSweepMatchesReference(t *testing.T) {
	tr := perBranchTrace(3, 12_000, 300)
	oracle := core.Oracle(tr, core.OracleOptions{OracleConfig: core.OracleConfig{WindowLen: 16}})
	grids := map[string]func() bp.SweepGrid{
		"global-oracle":    func() bp.SweepGrid { return globalGrid(oracle.BySize) },
		"global-late-refs": func() bp.SweepGrid { return globalGrid(lateAssignment(tr, 9)) },
		"bimodal-fallback": func() bp.SweepGrid { return bp.NewBimodalSweep([]uint{3, 8, 12}) },
		"concat-fallback":  gshareConcat,
	}
	for name, mk := range grids {
		want := referenceResults(tr, mk())
		for _, par := range []int{1, 2} {
			opts := sim.Options{PerBranch: true, Parallel: par, Observer: obs.New()}
			samePerBranch(t, fmt.Sprintf("%s/in-memory/parallel=%d", name, par), sim.SimulateSweep(tr, mk(), opts), want)
		}
	}
}

// TestPerBranchSweepEngines pins which engine a per-branch request
// takes, through its counters: the global grid stays fused, a fused grid
// that cannot count per branch falls back visibly, and totals-only
// calls return no Results.
func TestPerBranchSweepEngines(t *testing.T) {
	tr := perBranchTrace(5, 4_000, 60)
	sels := core.Oracle(tr, core.OracleOptions{OracleConfig: core.OracleConfig{WindowLen: 16}})
	count := func(reg *obs.Registry, name string) int64 { return reg.Counter(name).Value() }

	reg := obs.New()
	out := sim.SimulateSweep(tr, globalGrid(sels.BySize), sim.Options{PerBranch: true, Parallel: 2, Observer: reg})
	if len(out.Results) != 4 {
		t.Fatalf("global grid: %d results, want 4", len(out.Results))
	}
	for _, c := range []string{"sim.sweep.runs.fused", "sim.sweep.runs.perbranch"} {
		if got := count(reg, c); got != 1 {
			t.Errorf("global grid: %s = %d, want 1", c, got)
		}
	}
	if got := count(reg, "sim.sweep.perbranch.fallback.global"); got != 0 {
		t.Errorf("global grid left the fused path (%d)", got)
	}

	// Fused grids without a per-branch form: a per-branch request runs
	// per config, visibly.
	for _, g := range []bp.SweepGrid{bp.NewBimodalSweep([]uint{4, 8}), bp.NewGshareSweep([]uint{4, 8}), gshareConcat()} {
		reg = obs.New()
		out := sim.SimulateSweep(tr, g, sim.Options{PerBranch: true, Observer: reg})
		name := g.GridName()
		if len(out.Results) != len(g.ConfigNames()) {
			t.Errorf("%s: %d results, want %d", name, len(out.Results), len(g.ConfigNames()))
		}
		if got := count(reg, "sim.sweep.perbranch.fallback."+name); got != 1 {
			t.Errorf("%s: perbranch.fallback = %d, want 1", name, got)
		}
		if got := count(reg, "sim.sweep.runs.fallback"); got != 1 {
			t.Errorf("%s: runs.fallback = %d, want 1", name, got)
		}
	}

	// A concatenation has no per-branch form, whatever its parts.
	mixed := bp.NewConcatSweep("mixed", bp.NewGshareSweep([]uint{6}), bp.NewBimodalSweep([]uint{6}))
	if bp.CountsBranches(mixed) {
		t.Error("a concat must not count per branch")
	}

	reg = obs.New()
	if out := sim.SimulateSweep(tr, globalGrid(sels.BySize), sim.Options{Observer: reg}); out.Results != nil {
		t.Error("a totals-only sweep returned per-branch results")
	}
	if got := count(reg, "sim.sweep.runs.perbranch"); got != 0 {
		t.Errorf("totals-only sweep: runs.perbranch = %d, want 0", got)
	}
}
