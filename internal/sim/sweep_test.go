package sim

import (
	"testing"

	"branchcorr/internal/bp"
	"branchcorr/internal/trace"
)

// Differential suite for the sweep engine: SimulateSweep (fused and
// ForceReference) must agree bit-identically, per config, with independent sim.Simulate runs of
// the grid's scalar configs — the same equivalence ladder the
// single-predictor engine is pinned by, lifted to whole grids.

// sweepTestGrids enumerates one grid builder per engine-relevant shape:
// each fused family, plus a PredictorGrid mixing kernel-backed and
// scalar-only predictors so the fallback engine's per-config dispatch
// is exercised in one grid.
func sweepTestGrids() map[string]func() bp.SweepGrid {
	return map[string]func() bp.SweepGrid{
		"gshare-fused": func() bp.SweepGrid {
			return bp.NewGshareSweep([]uint{2, 5, 8, 11, 14})
		},
		"bimodal-fused": func() bp.SweepGrid {
			return bp.NewBimodalSweep([]uint{1, 4, 8, 12})
		},
		"mixed-fallback": func() bp.SweepGrid {
			return bp.NewPredictorGrid("mixed", []bp.Predictor{
				bp.NewGshare(9),  // kernel-backed
				bp.NewPath(6, 4), // scalar-only: exercises the reference loop
				bp.NewBimodal(7), // kernel-backed
				bp.AlwaysTaken{}, // kernel-backed static
			})
		},
	}
}

// independentCorrect simulates each of the grid's scalar configs in its
// own sim.Simulate run and returns the per-config correct counts.
func independentCorrect(tr *trace.Trace, g bp.SweepGrid) []int64 {
	preds := g.Configs()
	out := make([]int64, len(preds))
	for c, p := range preds {
		out[c] = int64(Simulate(tr, []bp.Predictor{p}, Options{}).Results[0].Correct)
	}
	return out
}

// sameSweep asserts an outcome matches the expected per-config counts
// and total.
func sameSweep(t *testing.T, ctxt string, o *SweepOutcome, want []int64, total int) {
	t.Helper()
	if o.Total != total {
		t.Errorf("%s: total %d, want %d", ctxt, o.Total, total)
	}
	if len(o.Correct) != len(want) {
		t.Fatalf("%s: %d configs, want %d", ctxt, len(o.Correct), len(want))
	}
	for c := range want {
		if o.Correct[c] != want[c] {
			t.Errorf("%s: config %s: %d correct, want %d", ctxt, o.Configs[c], o.Correct[c], want[c])
		}
	}
}

// TestSimulateSweepMatchesIndependentRuns is the engine-level
// equivalence ladder: fused sweep == reference sweep == N independent
// Simulate runs, per config, over randomized traces.
func TestSimulateSweepMatchesIndependentRuns(t *testing.T) {
	for _, seed := range []int64{5, 23} {
		tr := randomTrace(seed, 30_000)
		for name, mk := range sweepTestGrids() {
			want := independentCorrect(tr, mk())
			fused := SimulateSweep(tr, mk(), Options{})
			sameSweep(t, name+"/fused", fused, want, tr.Len())
			ref := SimulateSweep(tr, mk(), Options{ForceReference: true})
			sameSweep(t, name+"/reference", ref, want, tr.Len())
		}
	}
}

// TestSimulateSweepOutcomeShape pins the outcome metadata consumers key
// on: grid and trace names, config labels in grid order, and the
// accuracy accessor.
func TestSimulateSweepOutcomeShape(t *testing.T) {
	tr := randomTrace(3, 5_000)
	g := bp.NewGshareSweep([]uint{4, 8})
	o := SimulateSweep(tr, g, Options{})
	if o.Grid != g.GridName() {
		t.Errorf("grid %q, want %q", o.Grid, g.GridName())
	}
	if o.Trace != tr.Name() {
		t.Errorf("trace %q, want %q", o.Trace, tr.Name())
	}
	if len(o.Configs) != 2 || o.Configs[0] != "gshare(4)" || o.Configs[1] != "gshare(8)" {
		t.Errorf("configs %v", o.Configs)
	}
	for c := range o.Configs {
		if want := float64(o.Correct[c]) / float64(o.Total); o.Accuracy(c) != want {
			t.Errorf("accuracy(%d) = %v, want %v", c, o.Accuracy(c), want)
		}
	}
	if (&SweepOutcome{Configs: []string{"x"}, Correct: []int64{0}}).Accuracy(0) != 0 {
		t.Error("empty outcome accuracy must be 0")
	}
}
