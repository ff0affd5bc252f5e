package experiments

import (
	"context"
	"strings"
	"testing"

	"branchcorr/internal/core"
	"branchcorr/internal/runner"
	"branchcorr/internal/trace"
)

// buildReportWith builds a full golden-config report with the given
// oracle pipeline implementation and returns its JSON and rendered-text
// bytes.
func buildReportWith(t *testing.T, parallel int, oracle func(*trace.Trace, core.OracleConfig, []int) []*core.Selections) (string, string) {
	t.Helper()
	s, err := NewSuite(goldenConfig(), t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	if oracle != nil {
		s.oracleBuild = oracle
	}
	report, err := s.BuildReport(context.Background(), nil, runner.Options{Parallel: parallel})
	if err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	if err := report.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String(), report.Render()
}

// referenceOracleWindows is the suite's oracle hook on the reference
// implementation: one ReferenceBuildSelective run per window.
func referenceOracleWindows(tr *trace.Trace, cfg core.OracleConfig, windows []int) []*core.Selections {
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
