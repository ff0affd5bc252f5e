// Conformance suite for the fused-sweep contract: every SweepKernel
// must be a bit-identical replacement, per config, for replaying the
// trace through that config's independent scalar predictor — across
// randomized traces, grid shapes, and arbitrary block boundaries. This
// is the bp-side half of the equivalence guarantee sim.SimulateSweep's
// fused path rests on.
package bp_test

import (
	"testing"

	"branchcorr/internal/bp"
	"branchcorr/internal/trace"
)

// sweepGrids enumerates one freshly built grid per fused family, shaped
// to stress the sharing tricks: tiny tables that alias hard, mixed
// geometries, and config orders that are not monotone in table size.
func sweepGrids() map[string]func() bp.SweepKernel {
	return map[string]func() bp.SweepKernel{
		"gshare": func() bp.SweepKernel {
			return bp.NewGshareSweep([]uint{1, 2, 5, 8, 11, 14, 16})
		},
		"bimodal": func() bp.SweepKernel {
			return bp.NewBimodalSweep([]uint{12, 1, 3, 6, 8, 10})
		},
		// Tiny chooser and bimodal tables so both alias across the gshare
		// column sweep; non-monotone gshare sizes.
		"hybrid": func() bp.SweepKernel {
			return bp.NewHybridSweep([]uint{8, 1, 4, 11, 6}, 5, 4)
		},
		// Heterogeneous concatenation: the shim must hand each part its
		// exact slice of the count vector, in argument order.
		"concat": func() bp.SweepKernel {
			return bp.NewConcatSweep("concat-mixed",
				bp.NewGshareSweep([]uint{3, 7}),
				bp.NewHybridSweep([]uint{5, 9}, 6, 5),
				bp.NewBimodalSweep([]uint{2, 8}),
			)
		},
	}
}

// ifSweepGrids enumerates the interference-free families separately:
// their tables grow with unbounded per-(address, history) state, so
// they are conformance-tested with everything else but carry a bounded
// — not zero — steady-state allocation gate.
func ifSweepGrids() map[string]func() bp.SweepKernel {
	return map[string]func() bp.SweepKernel{
		"if-gshare": func() bp.SweepKernel {
			return bp.NewIFGshareSweep([]uint{1, 4, 8, 12, 16})
		},
		"if-pas": func() bp.SweepKernel {
			return bp.NewIFPAsSweep([]uint{1, 3, 6, 10, 14})
		},
	}
}

// allSweepGrids merges every fused family for the conformance suites.
func allSweepGrids() map[string]func() bp.SweepKernel {
	all := sweepGrids()
	for name, mk := range ifSweepGrids() {
		all[name] = mk
	}
	return all
}

// scalarSweepTotals replays the whole trace through each of the grid's
// independent scalar configs and returns the per-config correct totals —
// the executable specification the fused kernel must match.
func scalarSweepTotals(g bp.SweepGrid, tr *trace.Trace) []int32 {
	preds := g.Configs()
	out := make([]int32, len(preds))
	for c, p := range preds {
		_, total := scalarCounts(p, tr, 0, tr.Len())
		out[c] = int32(total)
	}
	return out
}

// sweepTotals replays the packed trace through SweepBlock in chunks of
// the given size. The scratch is pre-seeded with per-config sentinels to
// pin the adds-only contract (the kernel must never overwrite).
func sweepTotals(g bp.SweepKernel, pt *trace.Packed, chunk int) []int32 {
	ncfg := len(g.ConfigNames())
	correct := make([]int32, ncfg)
	for c := range correct {
		correct[c] = int32(1000 * (c + 1))
	}
	n := pt.Len()
	for at := 0; at < n; at += chunk {
		end := min(at+chunk, n)
		g.SweepBlock(blockOf(pt, at, end), correct)
	}
	for c := range correct {
		correct[c] -= int32(1000 * (c + 1))
	}
	return correct
}

// TestSweepScalarConformance pins every fused sweep family bit-identical,
// per config, to its independent scalar configs, at several block
// layouts (including single-record blocks, word-straddling chunks, a
// chunk one past the sweep tile, and one full-range call).
func TestSweepScalarConformance(t *testing.T) {
	for _, seed := range []int64{3, 17} {
		tr := kernelRandomTrace(seed, 25_000)
		pt := tr.Packed()
		for family, mk := range allSweepGrids() {
			want := scalarSweepTotals(mk(), tr)
			for _, chunk := range []int{1, 63, 64, 65, 1000, 2049, tr.Len()} {
				got := sweepTotals(mk(), pt, chunk)
				for c := range want {
					if got[c] != want[c] {
						name := mk().ConfigNames()[c]
						t.Errorf("seed=%d %s chunk=%d: config %s: %d correct (fused) vs %d (scalar)",
							seed, family, chunk, name, got[c], want[c])
					}
				}
			}
		}
	}
}

// TestSweepConfigNamesMatchScalar pins each grid's config labels to the
// Name() of the scalar predictor it stands for, so sweep results are
// attributable to exact single-config equivalents.
func TestSweepConfigNamesMatchScalar(t *testing.T) {
	for family, mk := range allSweepGrids() {
		g := mk()
		names := g.ConfigNames()
		preds := g.Configs()
		if len(names) != len(preds) {
			t.Fatalf("%s: %d names vs %d configs", family, len(names), len(preds))
		}
		for c, p := range preds {
			if names[c] != p.Name() {
				t.Errorf("%s config %d: grid name %q vs scalar name %q", family, c, names[c], p.Name())
			}
		}
		if g.GridName() == "" {
			t.Errorf("%s: empty grid name", family)
		}
	}
}

// TestPredictorGrid covers the fallback adapter: held instances are
// returned as-is (they carry the simulation state) under their own
// names, and an empty grid is rejected.
func TestPredictorGrid(t *testing.T) {
	a, b := bp.NewGshare(4), bp.NewBimodal(6)
	g := bp.NewPredictorGrid("mixed", []bp.Predictor{a, b})
	if g.GridName() != "mixed" {
		t.Errorf("grid name %q", g.GridName())
	}
	if names := g.ConfigNames(); names[0] != a.Name() || names[1] != b.Name() {
		t.Errorf("config names %v", names)
	}
	ps := g.Configs()
	if ps[0] != bp.Predictor(a) || ps[1] != bp.Predictor(b) {
		t.Error("Configs must return the held instances, not copies")
	}
	if _, ok := bp.SweepGrid(g).(bp.SweepKernel); ok {
		t.Error("PredictorGrid must not claim a fused kernel")
	}
}

// TestSweepValidation pins the constructor panics: out-of-range bits and
// empty grids fail loudly at build time, matching the scalar
// constructors' documented ranges.
func TestSweepValidation(t *testing.T) {
	cases := map[string]func(){
		"gshare empty":     func() { bp.NewGshareSweep(nil) },
		"gshare zero bits": func() { bp.NewGshareSweep([]uint{8, 0}) },
		"gshare over":      func() { bp.NewGshareSweep([]uint{27}) },
		"bimodal empty":    func() { bp.NewBimodalSweep(nil) },
		"bimodal over":     func() { bp.NewBimodalSweep([]uint{31}) },
		"predictors empty": func() { bp.NewPredictorGrid("none", nil) },
		"hybrid empty":     func() { bp.NewHybridSweep(nil, 8, 8) },
		"hybrid gshare over": func() {
			bp.NewHybridSweep([]uint{27}, 8, 8)
		},
		"hybrid bimodal over": func() {
			bp.NewHybridSweep([]uint{8}, 31, 8)
		},
		"hybrid chooser zero": func() {
			bp.NewHybridSweep([]uint{8}, 8, 0)
		},
		"if-gshare empty":     func() { bp.NewIFGshareSweep(nil) },
		"if-gshare zero bits": func() { bp.NewIFGshareSweep([]uint{8, 0}) },
		"if-gshare over":      func() { bp.NewIFGshareSweep([]uint{33}) },
		"if-pas empty":        func() { bp.NewIFPAsSweep(nil) },
		"if-pas over":         func() { bp.NewIFPAsSweep([]uint{33}) },
		"concat empty":        func() { bp.NewConcatSweep("none") },
	}
	for name, build := range cases {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Error("constructor did not panic")
				}
			}()
			build()
		})
	}
}

// TestSweepGridNamesDistinguishShapes guards the metric/report keys:
// different grid shapes must not collide on one GridName.
func TestSweepGridNamesDistinguishShapes(t *testing.T) {
	a := bp.NewGshareSweep([]uint{8, 10}).GridName()
	b := bp.NewGshareSweep([]uint{8, 10, 12}).GridName()
	if a == b {
		t.Errorf("grid names collide: %q", a)
	}
}
