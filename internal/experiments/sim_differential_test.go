package experiments

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"branchcorr/internal/bp"
	"branchcorr/internal/runner"
	"branchcorr/internal/sim"
	"branchcorr/internal/trace"
)

// referenceRun is sim.Simulate pinned to the per-record reference loop.
func referenceRun(tr *trace.Trace, hits bool, predictors ...bp.Predictor) *sim.Outcome {
	return sim.Simulate(tr, predictors, sim.Options{Hits: hits, ForceReference: true})
}

// referenceSweep is sim.SimulateSweep pinned to the scalar reference
// loop, bypassing both the fused grid walk and per-config kernels.
func referenceSweep(tr *trace.Trace, grid bp.SweepGrid, perBranch bool) *sim.SweepOutcome {
	return sim.SimulateSweep(tr, grid, sim.Options{ForceReference: true, PerBranch: perBranch})
}

// buildReportWithSim builds a full golden-config report with the given
// simulation engine implementations and returns its JSON and rendered
// text.
func buildReportWithSim(t *testing.T, parallel int,
	run func(*trace.Trace, bool, ...bp.Predictor) *sim.Outcome,
	sweep func(*trace.Trace, bp.SweepGrid, bool) *sim.SweepOutcome) (string, string) {
	t.Helper()
	s, err := NewSuite(goldenConfig(), t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	if run != nil {
		s.simRun = run
	}
	if sweep != nil {
		s.simSweep = sweep
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

// TestReportByteIdentitySimKernelVsReference is the end-to-end guarantee
// of the columnar simulation engine: a full report built with the
// batched kernels must be byte-identical — JSON and rendered text — to
// one built with the per-record reference loop, at every parallelism
// level. This is the acceptance gate for the sim fast path riding under
// the public Simulate API.
func TestReportByteIdentitySimKernelVsReference(t *testing.T) {
	refJSON, refText := buildReportWithSim(t, 1, referenceRun, referenceSweep)
	for _, parallel := range []int{1, 8} {
		kJSON, kText := buildReportWithSim(t, parallel, nil, nil) // default: kernel + fused-sweep fast paths
		if kJSON != refJSON {
			t.Errorf("parallel=%d: kernel JSON report (%d bytes) differs from reference (%d bytes)",
				parallel, len(kJSON), len(refJSON))
		}
		if kText != refText {
			t.Errorf("parallel=%d: kernel rendered report differs from reference", parallel)
		}
	}
}

// TestIdealStaticClosedForm pins the closed-form ideal-static Result
// the baselines use against a replay of bp.IdealStatic, on the kernel
// and on the reference loop: on a hand-built trace with ties (which
// predict taken), single-record sites of each direction and lopsided
// sites, and on a workload trace.
func TestIdealStaticClosedForm(t *testing.T) {
	hand := trace.New("hand", 0)
	for _, r := range []struct {
		pc    trace.Addr
		taken []bool
	}{
		{0x10, []bool{true, false}},                // tie: taken predicted, 1 of 2
		{0x14, []bool{false, true, true, false}},   // tie, 2 of 4
		{0x18, []bool{false}},                      // single record, not taken
		{0x1c, []bool{true}},                       // single record, taken
		{0x20, []bool{false, false, true}},         // not-taken majority
		{0x24, []bool{true, true, true, false}},    // taken majority
		{0x28, []bool{false, false, false, false}}, // never taken
	} {
		for _, tk := range r.taken {
			hand.Append(trace.Record{PC: r.pc, Taken: tk})
		}
	}
	s, err := NewSuite(Config{Length: 20_000, Workloads: []string{"gcc"}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range []*trace.Trace{hand, s.Traces()[0]} {
		got := idealStatic(tr)
		for _, force := range []bool{false, true} {
			want := sim.Simulate(tr, []bp.Predictor{bp.NewIdealStatic(trace.Summarize(tr))}, sim.Options{ForceReference: force}).Results[0]
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s (reference %v): closed form %v, replay %v", tr.Name(), force, got, want)
			}
		}
	}
}
