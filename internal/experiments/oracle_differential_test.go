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
	oracle func(*trace.Trace, *core.PathClasses, core.OracleConfig, []int) []*core.Selections
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
func buildReportWith(t *testing.T, parallel int, oracle func(*trace.Trace, *core.PathClasses, core.OracleConfig, []int) []*core.Selections) (string, string) {
	t.Helper()
	return buildReportsWith(t, goldenConfig(), parallel, reportSeams{oracle: oracle}, nil)
}

// referenceOracleWindows is the suite's oracle hook on the reference
// implementation: one ReferenceBuildSelective run per window, ignoring
// the path classes.
func referenceOracleWindows(tr *trace.Trace, _ *core.PathClasses, cfg core.OracleConfig, windows []int) []*core.Selections {
	out := make([]*core.Selections, len(windows))
	for i, n := range windows {
		cfg.WindowLen = n
		out[i] = core.ReferenceBuildSelective(tr, cfg)
	}
	return out
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

// TestReportFig5FoldKernelVsReference covers the fold of the configured
// window's oracle build into Figure 5's per-trace step, which happens
// only when a report requests Figure 5 next to an exhibit that reads the
// window's selections. Reports of {fig4}, {fig5}, {fig4, fig5} and every
// exhibit, and {fig4} then {fig5} on one suite, built on the kernels and
// shared path classes at parallel 1 and 8, must be byte-identical to the
// same reports built on the reference oracle and the reference sweep
// engine. Figure 5 sweeps windows 8, 16 and 32, so its step classifies
// at 32 where the per-branch sweep classifies at 16 without the fold, as
// in the default config. The kernel runs must also classify and build
// as the fold promises: without it, the window-16 build and the
// per-branch sweep classify once each, and Figure 5's step classifies
// once more for its other windows; with it, each trace is classified
// once and gets one oracle call, whose classes Figure 5's sweep and the
// per-branch sweep read too. Every run delivers each window's
// selections once per trace: a later report reuses the window-16 build
// of an earlier one.
func TestReportFig5FoldKernelVsReference(t *testing.T) {
	base := goldenConfig()
	base.Fig5Windows = []int{8, 16, 32}
	ntraces := int64(len(base.Workloads))
	cases := []struct {
		name    string
		reports [][]string
		passes  int64 // core.paths.classify.passes per trace
		calls   int64 // core.OracleWindows calls per trace
		builds  int64 // core.oracle.builds per trace
	}{
		{"fig4", [][]string{{"fig4"}}, 2, 1, 1},
		{"fig5", [][]string{{"fig5"}}, 2, 2, 3},
		{"fig4+fig5", [][]string{{"fig4", "fig5"}}, 1, 1, 3},
		{"all", [][]string{nil}, 1, 1, 3},
		{"fig4-then-fig5", [][]string{{"fig4"}, {"fig5"}}, 3, 2, 3},
	}
	ref := reportSeams{oracle: referenceOracleWindows, sweep: referenceSweep}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			refJSON, refText := buildReportsWith(t, base, 1, ref, tc.reports...)
			for _, parallel := range []int{1, 8} {
				reg := obs.New()
				cfg := base
				cfg.Obs = reg
				kJSON, kText := buildReportsWith(t, cfg, parallel, reportSeams{}, tc.reports...)
				if kJSON != refJSON || kText != refText {
					t.Errorf("parallel=%d: kernel report differs from reference (JSON %d vs %d bytes)",
						parallel, len(kJSON), len(refJSON))
				}
				if got := reg.Counter("core.paths.classify.passes").Value(); got != tc.passes*ntraces {
					t.Errorf("parallel=%d: %d classification passes, want %d per trace", parallel, got, tc.passes)
				}
				if got := reg.Snapshot().Histograms["core.oracle.build.ns"].Count; got != tc.calls*ntraces {
					t.Errorf("parallel=%d: %d oracle calls, want %d per trace", parallel, got, tc.calls)
				}
				if got := reg.Counter("core.oracle.builds").Value(); got != tc.builds*ntraces {
					t.Errorf("parallel=%d: %d oracle builds, want %d per trace", parallel, got, tc.builds)
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
	s.selsFor(tr)
	if p2 := tr.Packed(); p1 != p2 {
		t.Error("an oracle build left a distinct packed view for the same trace")
	}
	if p1.Len() != tr.Len() {
		t.Errorf("packed view length %d, trace length %d", p1.Len(), tr.Len())
	}
}
