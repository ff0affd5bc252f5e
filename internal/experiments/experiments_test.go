package experiments

import (
	"context"
	"strings"
	"testing"

	"branchcorr/internal/core"
	"branchcorr/internal/obs"
	"branchcorr/internal/runner"
)

// testSuite builds one small shared suite (50k branches, two easy and two
// hard benchmarks) — enough for every exhibit's structural properties.
var cachedSuite *Suite

func testSuite(t *testing.T) *Suite {
	t.Helper()
	if cachedSuite != nil {
		return cachedSuite
	}
	s, err := NewSuite(Config{
		Length:      50_000,
		Workloads:   []string{"gcc", "ijpeg", "perl", "vortex"},
		Fig5Windows: []int{8, 16},
		ExtraSpecs:  []string{"bimodal:12", "ideal-static"},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	cachedSuite = s
	return s
}

// testReport builds the named exhibits on the shared test suite.
func testReport(t *testing.T, names ...string) *Report {
	t.Helper()
	r, err := testSuite(t).BuildReport(context.Background(), names, runner.Options{Parallel: 2})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestNewSuiteUnknownWorkload(t *testing.T) {
	if _, err := NewSuite(Config{Workloads: []string{"bogus"}}, nil); err == nil {
		t.Error("unknown workload should fail")
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if c.Length != 1_000_000 || c.GshareBits != 16 || len(c.Workloads) != 8 {
		t.Errorf("defaults: %+v", c)
	}
	if len(c.Fig5Windows) != 7 || c.Fig5Windows[0] != 8 || c.Fig5Windows[6] != 32 {
		t.Errorf("Fig5Windows: %v", c.Fig5Windows)
	}
	if len(c.Fig9Percentiles) != 21 {
		t.Errorf("Fig9Percentiles: %v", c.Fig9Percentiles)
	}
}

func TestTable1(t *testing.T) {
	r := testReport(t, "table1").Table1
	if len(r.Rows) != 4 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	for _, row := range r.Rows {
		if row.Branches != 50_000 {
			t.Errorf("%s: branches = %d", row.Benchmark, row.Branches)
		}
		if row.Static == 0 || row.Input == "" {
			t.Errorf("%s: incomplete row %+v", row.Benchmark, row)
		}
	}
	out := r.Render()
	if !strings.Contains(out, "Table 1") || !strings.Contains(out, "gcc") {
		t.Errorf("render:\n%s", out)
	}
}

func TestFigure4Properties(t *testing.T) {
	r := testReport(t, "fig4").Figure4
	for _, row := range r.Rows {
		// Selective accuracy must not fall with more refs (oracle
		// selection is monotone in the profile metric; the adaptive
		// simulation tracks it within a small tolerance).
		if row.Sel[2] < row.Sel[1]-0.01 || row.Sel[3] < row.Sel[2]-0.01 {
			t.Errorf("%s: selective accuracies not monotone: %v", row.Benchmark, row.Sel)
		}
		// All accuracies must be sane.
		for k := 1; k <= core.MaxSelectiveRefs; k++ {
			if row.Sel[k] < 0.5 || row.Sel[k] > 1 {
				t.Errorf("%s: sel[%d] = %v", row.Benchmark, k, row.Sel[k])
			}
		}
		// IF gshare must beat real gshare (no interference).
		if row.IFGshare < row.Gshare-0.005 {
			t.Errorf("%s: IF gshare (%.4f) below gshare (%.4f)", row.Benchmark, row.IFGshare, row.Gshare)
		}
	}
	if out := r.Render(); !strings.Contains(out, "Figure 4") {
		t.Errorf("render missing title")
	}
}

func TestFigure5Properties(t *testing.T) {
	r := testReport(t, "fig5").Figure5
	if len(r.Windows) != 2 || len(r.Acc) != 4 {
		t.Fatalf("shape: %v x %d", r.Windows, len(r.Acc))
	}
	for bi, accs := range r.Acc {
		for wi, a := range accs {
			if a < 0.5 || a > 1 {
				t.Errorf("%s window %d: accuracy %v", r.Benchmarks[bi], r.Windows[wi], a)
			}
		}
		// A longer window can only widen the candidate set; allow small
		// adaptive noise but catch collapses.
		if accs[1] < accs[0]-0.02 {
			t.Errorf("%s: accuracy fell sharply with longer window: %v", r.Benchmarks[bi], accs)
		}
	}
	if out := r.Render(); !strings.Contains(out, "Figure 5") || !strings.Contains(out, "n=16") {
		t.Errorf("render:\n%s", out)
	}
}

func TestTable2Properties(t *testing.T) {
	r := testReport(t, "table2").Table2
	for _, row := range r.Rows {
		// A max-combiner can never lose to its base predictor.
		if row.GshareCorr < row.Gshare {
			t.Errorf("%s: gshare w/ Corr (%.4f) below gshare (%.4f)", row.Benchmark, row.GshareCorr, row.Gshare)
		}
		if row.IFGshareCorr < row.IFGshare {
			t.Errorf("%s: IF gshare w/ Corr below IF gshare", row.Benchmark)
		}
		if row.MispredReduction < 0 || row.MispredReduction > 1 {
			t.Errorf("%s: mispred reduction %v", row.Benchmark, row.MispredReduction)
		}
	}
	if out := r.Render(); !strings.Contains(out, "Table 2") {
		t.Error("render missing title")
	}
}

func TestFigure6Properties(t *testing.T) {
	r := testReport(t, "fig6").Figure6
	for _, row := range r.Rows {
		sum := 0.0
		for _, f := range row.Frac {
			if f < 0 || f > 1 {
				t.Errorf("%s: fraction %v out of range", row.Benchmark, f)
			}
			sum += f
		}
		if sum < 0.999 || sum > 1.001 {
			t.Errorf("%s: fractions sum to %v", row.Benchmark, sum)
		}
	}
	// The image coder must have a visible loop class.
	for _, row := range r.Rows {
		if row.Benchmark == "ijpeg" && row.Frac[core.ClassLoop] < 0.05 {
			t.Errorf("ijpeg loop class = %v, want >= 0.05", row.Frac[core.ClassLoop])
		}
	}
	if out := r.Render(); !strings.Contains(out, "Figure 6") {
		t.Error("render missing title")
	}
}

func TestTable3Properties(t *testing.T) {
	r := testReport(t, "table3").Table3
	for _, row := range r.Rows {
		// The loop combiner uses the loop predictor exactly where the
		// classification says it is the best per-address predictor, so
		// it can only improve on IF-PAs for those branches... on PAs the
		// assignment is heuristic, so allow a hair of slack.
		if row.PAsLoop < row.PAs-0.005 {
			t.Errorf("%s: PAs w/ Loop (%.4f) below PAs (%.4f)", row.Benchmark, row.PAsLoop, row.PAs)
		}
		if row.IFPAsLoop < row.IFPAs-0.0001 {
			t.Errorf("%s: IF PAs w/ Loop (%.4f) below IF PAs (%.4f)", row.Benchmark, row.IFPAsLoop, row.IFPAs)
		}
	}
	if out := r.Render(); !strings.Contains(out, "Table 3") {
		t.Error("render missing title")
	}
}

func TestFigure7And8Properties(t *testing.T) {
	report := testReport(t, "fig7", "fig8")
	for _, r := range []*SplitResult{report.Figure7, report.Figure8} {
		for _, row := range r.Rows {
			sum := row.Frac[0] + row.Frac[1] + row.Frac[2]
			if sum < 0.999 || sum > 1.001 {
				t.Errorf("%s %s: fractions sum to %v", r.Title, row.Benchmark, sum)
			}
			if row.StaticHighBias < 0 || row.StaticHighBias > 1 {
				t.Errorf("%s: bias share %v", row.Benchmark, row.StaticHighBias)
			}
		}
		if out := r.Render(); !strings.Contains(out, "Figure") {
			t.Error("render missing title")
		}
	}
}

func TestFigure8StaticSmallerThanFigure7(t *testing.T) {
	// The paper's central section 5 point: the predictability classes
	// (Figure 8) shrink the static-best share relative to the real
	// predictors (Figure 7) — stronger predictors claim more branches.
	report := testReport(t, "fig7", "fig8")
	f7, f8 := report.Figure7, report.Figure8
	for i := range f7.Rows {
		if f8.Rows[i].Frac[core.CatStatic] > f7.Rows[i].Frac[core.CatStatic]+0.02 {
			t.Errorf("%s: Figure 8 static share (%.3f) exceeds Figure 7's (%.3f)",
				f7.Rows[i].Benchmark, f8.Rows[i].Frac[core.CatStatic], f7.Rows[i].Frac[core.CatStatic])
		}
	}
}

func TestFigure9Properties(t *testing.T) {
	r := testReport(t, "fig9").Figure9
	if len(r.Diff) != 2 {
		t.Fatalf("curves: %d", len(r.Diff))
	}
	for bi, curve := range r.Diff {
		for pi := 1; pi < len(curve); pi++ {
			if curve[pi] < curve[pi-1] {
				t.Errorf("%s: percentile curve not monotone at %d: %v",
					r.Benchmarks[bi], pi, curve)
			}
		}
	}
	if out := r.Render(); !strings.Contains(out, "Figure 9") {
		t.Error("render missing title")
	}
}

func TestFigure9UnknownBenchmark(t *testing.T) {
	s, err := NewSuite(Config{
		Length:         2_000,
		Workloads:      []string{"gcc"},
		Fig9Benchmarks: []string{"perl"},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.BuildReport(context.Background(), []string{"fig9"}, runner.Options{}); err == nil {
		t.Error("figure 9 with missing benchmark should fail")
	}
}

func TestInPathProperties(t *testing.T) {
	r := testReport(t, "inpath").InPath
	for _, row := range r.Rows {
		// Direction mode subsumes presence information; presence should
		// sit between static and direction up to adaptive noise.
		if row.Direction < row.Presence-0.01 {
			t.Errorf("%s: direction (%.4f) below presence (%.4f)",
				row.Benchmark, row.Direction, row.Presence)
		}
		if row.Presence < 0.4 || row.Presence > 1 {
			t.Errorf("%s: presence accuracy %v out of range", row.Benchmark, row.Presence)
		}
	}
	if out := r.Render(); !strings.Contains(out, "In-path") {
		t.Error("render missing title")
	}
}

func TestHybridsProperties(t *testing.T) {
	r := testReport(t, "hybrids").Hybrids
	for _, row := range r.Rows {
		// The ideal per-branch combiner dominates both components and
		// both real hybrids by construction.
		worst := row.Gshare
		if row.PAs < worst {
			worst = row.PAs
		}
		for _, v := range []float64{row.McFarling, row.Tournament} {
			if v < worst-0.02 {
				t.Errorf("%s: a hybrid (%.4f) fell far below the worse component (%.4f)",
					row.Benchmark, v, worst)
			}
			// Note: real hybrids may exceed the per-branch static
			// assignment (Ideal) because their choosers switch per
			// dynamic instance; no upper-bound assertion.
		}
		if row.Ideal < row.Gshare || row.Ideal < row.PAs {
			t.Errorf("%s: ideal combiner below a component", row.Benchmark)
		}
	}
	if out := r.Render(); !strings.Contains(out, "Hybrid organizations") {
		t.Error("render missing title")
	}
}

func TestCeilingProperties(t *testing.T) {
	r := testReport(t, "ceiling").Ceiling
	if r.HistoryBits != 12 || len(r.Rows) != 4 {
		t.Fatalf("shape: bits=%d rows=%d", r.HistoryBits, len(r.Rows))
	}
	for _, row := range r.Rows {
		// Ceilings are in range; residual entropy is a sub-bit quantity
		// for these workloads.
		if row.LocalCeil < 0.5 || row.LocalCeil > 1 || row.GlobalCeil < 0.5 || row.GlobalCeil > 1 {
			t.Errorf("%s: ceilings out of range: %+v", row.Benchmark, row)
		}
		if row.ResidualBits < 0 || row.ResidualBits > 1 {
			t.Errorf("%s: residual bits %v", row.Benchmark, row.ResidualBits)
		}
		// The adaptive predictor may beat the static-table ceiling under
		// phase drift, but not by much at this scale.
		if row.IFGshare > row.GlobalCeil+0.03 {
			t.Errorf("%s: IF gshare (%v) implausibly above ceiling (%v)",
				row.Benchmark, row.IFGshare, row.GlobalCeil)
		}
	}
	if out := r.Render(); !strings.Contains(out, "ceiling") {
		t.Error("render missing title")
	}
}

func TestTrainingProperties(t *testing.T) {
	r := testReport(t, "training").Training
	for _, row := range r.Rows {
		// Warm accuracy must be at least cold accuracy for the
		// high-state predictors (training only helps), within noise.
		if row.WarmGshare < row.ColdGshare-0.03 {
			t.Errorf("%s: gshare warm (%.4f) below cold (%.4f)",
				row.Benchmark, row.WarmGshare, row.ColdGshare)
		}
		if row.WarmIFGshare < row.ColdIFGshare-0.03 {
			t.Errorf("%s: IF gshare warm below cold", row.Benchmark)
		}
		// The bimodal baseline's warmup gap should be smaller than
		// IF-gshare's (far less state to train).
		gapBimodal := row.WarmBimodal - row.ColdBimodal
		gapIF := row.WarmIFGshare - row.ColdIFGshare
		if gapBimodal > gapIF+0.05 {
			t.Errorf("%s: bimodal warmup gap (%.4f) exceeds IF-gshare's (%.4f)",
				row.Benchmark, gapBimodal, gapIF)
		}
	}
	if out := r.Render(); !strings.Contains(out, "Training time") {
		t.Error("render missing title")
	}
}

func TestReportJSON(t *testing.T) {
	report := testReport(t, "table1", "table2")
	var buf strings.Builder
	if err := report.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{`"table1"`, `"table2"`, `"gshareBits": 16`, `"gcc"`} {
		if !strings.Contains(out, want) {
			t.Errorf("JSON missing %s", want)
		}
	}
	if strings.Contains(out, `"figure4"`) {
		t.Error("unset exhibit should be omitted")
	}
}

// TestSuiteCaching checks the per-branch bundle is computed once per
// trace: a second Figure 4 report on the same suite must hit the memo for
// every trace.
func TestSuiteCaching(t *testing.T) {
	reg := obs.New()
	s, err := NewSuite(Config{Length: 5_000, Workloads: []string{"gcc", "go"}, Obs: reg}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for range 2 {
		if _, err := s.BuildReport(context.Background(), []string{"fig4"}, runner.Options{Parallel: 2}); err != nil {
			t.Fatal(err)
		}
	}
	n := int64(len(s.Traces()))
	if got := reg.Counter("suite.memo.global.misses").Value(); got != n {
		t.Errorf("suite.memo.global.misses = %d, want %d (one per trace)", got, n)
	}
	if got := reg.Counter("suite.memo.global.calls").Value(); got != 2*n {
		t.Errorf("suite.memo.global.calls = %d, want %d (one per trace per report)", got, 2*n)
	}
}
