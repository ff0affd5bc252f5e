package sim

import (
	"bytes"
	"strings"
	"testing"

	"branchcorr/internal/bp"
	"branchcorr/internal/obs"
	"branchcorr/internal/trace"
)

// mustParse builds predictors for the Simulate tests.
func mustParse(t *testing.T, specs ...string) []bp.Predictor {
	t.Helper()
	ps, err := bp.ParseAll(specs, bp.Env{})
	if err != nil {
		t.Fatal(err)
	}
	return ps
}

// TestSimulateOptionEquivalence checks every Options combination that
// may change scheduling or engine produces identical Results: the
// zero-value call is the baseline, and ForceReference, Parallel, and
// BucketSize (which adds timelines but must not perturb accounting)
// all match it.
func TestSimulateOptionEquivalence(t *testing.T) {
	tr := randomTrace(11, 12_000)
	specs := []string{"gshare:12", "pas:8,8,2", "loop", "tage"}
	base := Simulate(tr, mustParse(t, specs...), Options{})
	variants := map[string]Options{
		"force-reference": {ForceReference: true},
		"parallel":        {Parallel: -1},
		"parallel-capped": {Parallel: 2},
		"bucketed":        {BucketSize: 1000},
		"all":             {Parallel: -1, BucketSize: 1000, ForceReference: true},
	}
	for name, opts := range variants {
		got := Simulate(tr, mustParse(t, specs...), opts)
		for i := range specs {
			sameResult(t, name+"/"+specs[i], base.Results[i], got.Results[i])
		}
	}
}

// TestSimulateTimelines checks BucketSize yields both Results and
// Timelines from one call, with the kernel and reference engines
// agreeing bucket by bucket.
func TestSimulateTimelines(t *testing.T) {
	tr := randomTrace(3, 5_500)
	const bucket = 1000
	fast := Simulate(tr, mustParse(t, "gshare:10"), Options{BucketSize: bucket})
	ref := Simulate(tr, mustParse(t, "gshare:10"), Options{BucketSize: bucket, ForceReference: true})
	if fast.Timelines == nil || ref.Timelines == nil {
		t.Fatal("BucketSize > 0 must produce timelines")
	}
	ftl, rtl := fast.Timelines[0], ref.Timelines[0]
	wantBuckets := (tr.Len() + bucket - 1) / bucket
	if len(ftl.Accuracy) != wantBuckets {
		t.Fatalf("kernel timeline has %d buckets, want %d", len(ftl.Accuracy), wantBuckets)
	}
	if len(ftl.Accuracy) != len(rtl.Accuracy) {
		t.Fatalf("engines disagree on bucket count: %d vs %d", len(ftl.Accuracy), len(rtl.Accuracy))
	}
	for i := range ftl.Accuracy {
		if ftl.Accuracy[i] != rtl.Accuracy[i] {
			t.Errorf("bucket %d: kernel %v vs reference %v", i, ftl.Accuracy[i], rtl.Accuracy[i])
		}
	}
	if Simulate(tr, mustParse(t, "gshare:10"), Options{}).Timelines != nil {
		t.Error("BucketSize == 0 must not produce timelines")
	}
}

// TestSimulateEngagementCounters checks the observer registry records
// which engine each predictor took — the fast-path-engagement evidence
// the -metrics snapshot surfaces — and that records are accounted per
// predictor.
func TestSimulateEngagementCounters(t *testing.T) {
	tr := randomTrace(5, 4_000)
	// tage has no kernel; gshare does.
	preds := mustParse(t, "gshare:10", "tage")
	reg := obs.New()
	Simulate(tr, preds, Options{Observer: reg})
	snap := reg.Snapshot()
	checks := map[string]int64{
		"sim.records":                     int64(2 * tr.Len()),
		"sim.runs.fastpath":               1,
		"sim.runs.reference":              1,
		"sim.fastpath.gshare(10)":         1,
		"sim.reference.tage(12,4 tables)": 1,
	}
	for name, want := range checks {
		if got := snap.Counters[name]; got != want {
			t.Errorf("counter %s = %d, want %d (snapshot: %v)", name, got, want, snap.Counters)
		}
	}

	// In-memory calls never report the streaming-only entries.
	SimulateSweep(tr, bp.NewGshareSweep([]uint{4, 8}), Options{Observer: reg})
	for name := range reg.Snapshot().Counters {
		if strings.HasPrefix(name, "sim.stream.") {
			t.Errorf("in-memory run reported streaming counter %s", name)
		}
	}
	for name := range reg.Snapshot().Gauges {
		if strings.HasPrefix(name, "sim.stream.") {
			t.Errorf("in-memory run reported streaming gauge %s", name)
		}
	}

	// ForceReference flips the kernel predictor onto the reference loop.
	reg2 := obs.New()
	Simulate(tr, mustParse(t, "gshare:10"), Options{ForceReference: true, Observer: reg2})
	if got := reg2.Snapshot().Counters["sim.reference.gshare(10)"]; got != 1 {
		t.Errorf("forced reference engagement = %d, want 1", got)
	}
}

// TestSimulateCountersParallelismInvariant checks the determinism claim
// the metrics system rests on: identical counter values whether the
// predictors ran sequentially or fanned out.
func TestSimulateCountersParallelismInvariant(t *testing.T) {
	tr := randomTrace(9, 8_000)
	specs := []string{"gshare:12", "bimodal:10", "pas:8,8,2", "tage", "loop"}
	snapFor := func(parallel int) []byte {
		reg := obs.New()
		Simulate(tr, mustParse(t, specs...), Options{Parallel: parallel, Observer: reg})
		b, err := reg.Snapshot().WithoutHistograms().MarshalIndent()
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	seq, par := snapFor(0), snapFor(-1)
	if !bytes.Equal(seq, par) {
		t.Errorf("counter snapshots differ across parallelism:\n%s\nvs\n%s", seq, par)
	}
}

// TestSimulateScannerBuckets checks the driver over a decoded BTR1
// stream matches the in-memory reference engine on both Results and
// Timelines, with buckets straddling the decoder's chunks.
func TestSimulateScannerBuckets(t *testing.T) {
	tr := randomTrace(7, 5_500)
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatal(err)
	}
	src, err := trace.ReadBlocks(&buf, 777)
	if err != nil {
		t.Fatal(err)
	}
	specs := []string{"gshare:10", "tage"}
	got, err := SimulateBlocks(src, mustParse(t, specs...), Options{BucketSize: 1000})
	if err != nil {
		t.Fatal(err)
	}
	want := Simulate(tr, mustParse(t, specs...), Options{BucketSize: 1000, ForceReference: true})
	sameOutcome(t, "stream", want, got)
}

// TestSimulateEmpty pins the degenerate cases: no predictors, and an
// empty trace.
func TestSimulateEmpty(t *testing.T) {
	tr := randomTrace(1, 100)
	out := Simulate(tr, nil, Options{BucketSize: 10})
	if len(out.Results) != 0 || len(out.Timelines) != 0 {
		t.Errorf("no predictors: %d results, %d timelines", len(out.Results), len(out.Timelines))
	}
	empty := trace.New("empty", 0)
	out = Simulate(empty, mustParse(t, "gshare:8"), Options{BucketSize: 10})
	r := out.Results[0]
	if r.Total != 0 || len(r.PerBranch) != 0 {
		t.Errorf("empty trace: %+v", r)
	}
	if len(out.Timelines[0].Accuracy) != 0 {
		t.Errorf("empty trace timeline: %+v", out.Timelines[0])
	}
}
