package experiments

import (
	"context"
	"strings"
	"testing"

	"branchcorr/internal/bp"
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

// TestReportOnePassPerConfig pins the run memo's contract: a report
// over every exhibit, then each exhibit in a report of its own on a
// fresh suite, replays each memoized configuration (gshare(16),
// PAs(12,10,6), IF-gshare(16)) exactly once per trace, and no exhibit
// replays one of them outside the memo: the baselines, the per-branch
// bundle, the hybrid's and the tournament's choosers and the training
// timelines all read the one run. The hybrid and the tournament still
// run once per trace each, choosing over the stored columns.
func TestReportOnePassPerConfig(t *testing.T) {
	cfg := Config{Length: 5_000, Workloads: []string{"gcc", "perl"}, Fig5Windows: []int{8}}
	for _, reports := range [][][]string{{ExhibitOrder()}, exhibitByExhibit()} {
		reg := obs.New()
		cfg.Obs = reg
		s, err := NewSuite(cfg, t.Logf)
		if err != nil {
			t.Fatal(err)
		}
		for _, exhibits := range reports {
			if _, err := s.BuildReport(context.Background(), exhibits, runner.Options{Parallel: 2}); err != nil {
				t.Fatal(err)
			}
		}
		n := int64(len(s.Traces()))
		hybrid := bp.NewHybrid(s.newGshare(), s.newPAs(), 12).Name()
		tournament := bp.NewTournament(s.cfg.PAsHistBits, s.cfg.PAsBHTBits, s.cfg.GshareBits, 12).Name()
		for _, c := range []struct {
			counter string
			want    int64
		}{
			{"suite.memo.run.misses", 3 * n},
			{"sim.fastpath." + s.newGshare().Name(), n},
			{"sim.fastpath." + s.newPAs().Name(), n},
			{"sim.fastpath." + s.newIFGshare().Name(), n},
			{"sim.fastpath." + hybrid, n},
			{"sim.fastpath." + tournament, n},
			{"sim.runs.reference", 0},
		} {
			if got := reg.Counter(c.counter).Value(); got != c.want {
				t.Errorf("%d reports: %s = %d, want %d", len(reports), c.counter, got, c.want)
			}
		}
		if calls := reg.Counter("suite.memo.run.calls").Value(); calls <= 3*n {
			t.Errorf("%d reports: suite.memo.run.calls = %d: no exhibit read a run another had made, so the check above proves little", len(reports), calls)
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
