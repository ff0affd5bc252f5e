package experiments

import (
	"context"
	"strings"
	"testing"

	"branchcorr/internal/bp"
	"branchcorr/internal/core"
	"branchcorr/internal/obs"
	"branchcorr/internal/runner"
	"branchcorr/internal/sim"
	"branchcorr/internal/trace"
)

// reportSeams are the engine seams a differential report build swaps
// in; nil fields keep the suite's defaults.
type reportSeams struct {
	oracle func(*trace.Trace, *core.PathClasses, core.OracleConfig, []int) ([]*core.Selections, *core.BeamStates)
	sweep  func(*trace.Trace, bp.SweepGrid, bool) *sim.SweepOutcome
}

// buildReportsWith builds one report per exhibit list (nil: every
// exhibit), in turn on one suite of cfg, through the given seams, and
// returns the reports' JSON and rendered-text bytes, each concatenated.
func buildReportsWith(t *testing.T, cfg Config, parallel int, seams reportSeams, reports ...[]string) (string, string) {
	t.Helper()
	s, err := NewSuite(cfg, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	if seams.oracle != nil {
		s.oracleBuild = seams.oracle
	}
	if seams.sweep != nil {
		s.simSweep = seams.sweep
	}
	var js, text strings.Builder
	for _, exhibits := range reports {
		report, err := s.BuildReport(context.Background(), exhibits, runner.Options{Parallel: parallel})
		if err != nil {
			t.Fatal(err)
		}
		if err := report.WriteJSON(&js); err != nil {
			t.Fatal(err)
		}
		text.WriteString(report.Render())
	}
	return js.String(), text.String()
}

// buildReportWith builds a full golden-config report with the given
// oracle pipeline implementation and returns its JSON and rendered-text
// bytes.
func buildReportWith(t *testing.T, parallel int, oracle func(*trace.Trace, *core.PathClasses, core.OracleConfig, []int) ([]*core.Selections, *core.BeamStates)) (string, string) {
	t.Helper()
	return buildReportsWith(t, goldenConfig(), parallel, reportSeams{oracle: oracle}, nil)
}

// referenceOracleWindows is the suite's oracle hook on the reference
// implementation: one ReferenceBuildSelective run per window. The state
// vectors a fused sweep replays come from a collection alone
// (core.OracleStates with no window to build) that holds the reference
// selections, so no kernel selection reaches the report.
func referenceOracleWindows(tr *trace.Trace, pc *core.PathClasses, cfg core.OracleConfig, windows []int) ([]*core.Selections, *core.BeamStates) {
	out := make([]*core.Selections, len(windows))
	held := make(map[int]*core.Selections, len(windows))
	for i, n := range windows {
		cfg.WindowLen = n
		out[i] = core.ReferenceBuildSelective(tr, cfg)
		held[n] = out[i]
	}
	_, st := core.OracleStates(pc, nil, held, cfg)
	return out, st
}

// TestReportByteIdentityKernelVsReference is the end-to-end guarantee of
// the columnar oracle kernels: a full report built with the packed
// kernels must be byte-identical — JSON and rendered text — to one built
// with the pre-kernel reference implementation, at every parallelism
// level. This is the acceptance gate for swapping implementations under
// the public oracle API.
func TestReportByteIdentityKernelVsReference(t *testing.T) {
	refJSON, refText := buildReportWith(t, 1, referenceOracleWindows)
	for _, parallel := range []int{1, 8} {
		kJSON, kText := buildReportWith(t, parallel, nil) // default: columnar kernels
		if kJSON != refJSON {
			t.Errorf("parallel=%d: kernel JSON report (%d bytes) differs from reference (%d bytes)",
				parallel, len(kJSON), len(refJSON))
		}
		if kText != refText {
			t.Errorf("parallel=%d: kernel rendered report differs from reference", parallel)
		}
	}
}

// TestReportFig5FoldKernelVsReference is the one-step contract: every
// report sequence that reads the oracle gives each trace one oracle
// step, shared by Figure 5 and the per-branch bundle (Figures 4 and 8,
// Table 2, in-path), whichever exhibits the sequence requests and in
// whatever order. Per trace, a sequence makes one path classification,
// one oracle call building every window of the Figure 5 windows and
// the configured oracle window (16), one Figure 5 sweep and one
// per-branch sweep, both replaying the call's state vectors with no
// walk of their own. The sequences are {fig4}, {fig5}, {fig4, fig5},
// every exhibit, {fig4} then {fig5}, {fig4} then every exhibit, and
// every exhibit in a report of its own in turn, on one suite; built on
// the kernels, each must be byte-identical to the same sequence built
// on the reference oracle and the reference sweep engine, at parallel 1
// and 8. Figure 5 sweeps windows 8, 16 and 32, and, in the union
// cases, 8 and 24, which omit the oracle window: the step then builds
// it as well, and classifies at 24.
func TestReportFig5FoldKernelVsReference(t *testing.T) {
	base := goldenConfig()
	base.Fig5Windows = []int{8, 16, 32}
	union := base
	union.Fig5Windows = []int{8, 24}
	ntraces := int64(len(base.Workloads))
	cases := []struct {
		name    string
		cfg     Config
		reports [][]string
	}{
		{"fig4", base, [][]string{{"fig4"}}},
		{"fig5", base, [][]string{{"fig5"}}},
		{"fig4+fig5", base, [][]string{{"fig4", "fig5"}}},
		{"all", base, [][]string{nil}},
		{"fig4-then-fig5", base, [][]string{{"fig4"}, {"fig5"}}},
		{"fig4-then-all", base, [][]string{{"fig4"}, nil}},
		{"each-alone", base, exhibitByExhibit()},
		{"union/fig5", union, [][]string{{"fig5"}}},
		{"union/fig4-then-all", union, [][]string{{"fig4"}, nil}},
	}
	ref := reportSeams{oracle: referenceOracleWindows, sweep: referenceSweep}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			builds := int64(3) // |Fig5Windows ∪ {16}| in both configs
			refJSON, refText := buildReportsWith(t, tc.cfg, 1, ref, tc.reports...)
			for _, parallel := range []int{1, 8} {
				reg := obs.New()
				cfg := tc.cfg
				cfg.Obs = reg
				walks := obs.Default().Counter("core.selective.sweep.walks").Value()
				kJSON, kText := buildReportsWith(t, cfg, parallel, reportSeams{}, tc.reports...)
				if kJSON != refJSON || kText != refText {
					t.Errorf("parallel=%d: kernel report differs from reference (JSON %d vs %d bytes)",
						parallel, len(kJSON), len(refJSON))
				}
				for _, c := range []struct {
					what string
					got  int64
					want int64
				}{
					{"classification passes", reg.Counter("core.paths.classify.passes").Value(), 1},
					{"oracle calls", reg.Snapshot().Histograms["core.oracle.build.ns"].Count, 1},
					{"oracle builds", reg.Counter("core.oracle.builds").Value(), builds},
					{"per-branch sweeps", reg.Counter("sim.sweep.fused.global-correlation").Value(), 1},
					{"Figure 5 sweeps", reg.Counter("sim.sweep.fused.fig5-selective-windows").Value(), 1},
				} {
					if c.got != c.want*ntraces {
						t.Errorf("parallel=%d: %d %s, want %d per trace", parallel, c.got, c.what, c.want)
					}
				}
				if got := obs.Default().Counter("core.selective.sweep.walks").Value() - walks; got != 0 {
					t.Errorf("parallel=%d: %d selective sweep walks, want 0", parallel, got)
				}
			}
		})
	}
}

// TestPackedMemoizedPerTrace pins that the suite packs each trace exactly
// once even when oracle builds consume it: the trace's Packed memo hands
// the oracle the same view before and after a build.
func TestPackedMemoizedPerTrace(t *testing.T) {
	s := testSuite(t)
	tr := s.Traces()[0]
	p1 := tr.Packed()
	s.stepFor(tr)
	if p2 := tr.Packed(); p1 != p2 {
		t.Error("an oracle build left a distinct packed view for the same trace")
	}
	if p1.Len() != tr.Len() {
		t.Errorf("packed view length %d, trace length %d", p1.Len(), tr.Len())
	}
}
