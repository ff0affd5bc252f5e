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

// TestReportSelectiveSweepWalks pins that the report's selective sweeps
// replay the oracle collection's state vectors: a report over every
// exhibit, then each exhibit in a report of its own on a fresh suite
// (the first exhibit that reads the oracle runs the trace's one oracle
// step, both sweeps included), makes zero walks. A sweep that runs a
// collection of its own (core.NewSelectiveSweep) counts that
// collection's walks in obs.Default(), whatever registry the suite
// reports to.
func TestReportSelectiveSweepWalks(t *testing.T) {
	cfg := Config{Length: 5_000, Workloads: []string{"gcc", "perl"}, Fig5Windows: []int{8, 16, 24}}
	walks := obs.Default().Counter("core.selective.sweep.walks")
	for _, reports := range [][][]string{{ExhibitOrder()}, exhibitByExhibit()} {
		reg := obs.New()
		cfg.Obs = reg
		s, err := NewSuite(cfg, t.Logf)
		if err != nil {
			t.Fatal(err)
		}
		before := walks.Value()
		for _, exhibits := range reports {
			if _, err := s.BuildReport(context.Background(), exhibits, runner.Options{Parallel: 2}); err != nil {
				t.Fatal(err)
			}
		}
		if n := walks.Value() - before; n != 0 {
			t.Errorf("%d reports: %d selective sweep walks, want 0", len(reports), n)
		}
		if reg.Counter("sim.sweep.fused.fig5-selective-windows").Value() == 0 || reg.Counter("sim.sweep.fused.global-correlation").Value() == 0 {
			t.Errorf("%d reports ran no fused selective sweep, so the check above proves nothing", len(reports))
		}
	}
}

// exhibitByExhibit is every exhibit, one report each, in report order.
func exhibitByExhibit() [][]string {
	var out [][]string
	for _, e := range ExhibitOrder() {
		out = append(out, []string{e})
	}
	return out
}
