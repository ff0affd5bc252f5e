package experiments

import (
	"context"
	"strings"
	"testing"

	"branchcorr/internal/obs"
	"branchcorr/internal/runner"
)

// TestReportSimKernelCoverage pins that every predictor the report
// simulates runs on a columnar kernel: a small report over every exhibit
// engages the reference loop zero times. A predictor added to an
// exhibit without a kernel fails here by name, instead of silently
// costing a per-record reference replay in every run of the report.
func TestReportSimKernelCoverage(t *testing.T) {
	reg := obs.New()
	s, err := NewSuite(Config{
		Length:      5_000,
		Workloads:   []string{"gcc", "perl"},
		Fig5Windows: []int{8},
		Obs:         reg,
	}, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.BuildReport(context.Background(), ExhibitOrder(), runner.Options{Parallel: 2}); err != nil {
		t.Fatal(err)
	}
	counters := reg.Snapshot().Counters
	if n := counters["sim.runs.reference"]; n != 0 {
		t.Errorf("sim.runs.reference = %d, want 0", n)
	}
	for name, n := range counters {
		if strings.HasPrefix(name, "sim.reference.") {
			t.Errorf("%s = %d: predictor ran on the reference loop", name, n)
		}
	}
	if counters["sim.runs.fastpath"] == 0 {
		t.Error("sim.runs.fastpath = 0: the report simulated nothing, so the check above proves nothing")
	}
}
