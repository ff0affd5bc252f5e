package sim

import (
	"bytes"
	"reflect"
	"testing"

	"branchcorr/internal/bp"
	"branchcorr/internal/trace"
)

// sameOutcome asserts streamed and in-memory outcomes agree bit for bit:
// every Result and, when present, every Timeline.
func sameOutcome(t *testing.T, ctxt string, want, got *Outcome) {
	t.Helper()
	if len(want.Results) != len(got.Results) {
		t.Fatalf("%s: %d vs %d results", ctxt, len(want.Results), len(got.Results))
	}
	for i := range want.Results {
		sameResult(t, ctxt, want.Results[i], got.Results[i])
	}
	if (want.Timelines == nil) != (got.Timelines == nil) {
		t.Fatalf("%s: timeline presence differs", ctxt)
	}
	for i := range want.Timelines {
		a, b := want.Timelines[i], got.Timelines[i]
		if a.Predictor != b.Predictor || a.Bucket != b.Bucket || !reflect.DeepEqual(a.Accuracy, b.Accuracy) {
			t.Errorf("%s: timeline %d differs:\n  %v\n  %v", ctxt, i, a, b)
		}
	}
}

// TestSimulateBlocksMatchesSimulate is the streamed-vs-in-memory
// differential gate for the simulation engine: for every registered
// predictor spec, SimulateBlocks over the packed trivial source — at
// chunk sizes hitting every boundary shape, including chunk 1 — is
// bit-identical to Simulate over the in-memory trace.
func TestSimulateBlocksMatchesSimulate(t *testing.T) {
	tr := randomTrace(11, 12_000)
	stats := trace.Summarize(tr)
	env := bp.Env{Stats: stats, Trace: tr}
	pt := tr.Packed()
	for _, spec := range bp.KnownSpecs() {
		mk := func() bp.Predictor {
			p, err := bp.Parse(spec, env)
			if err != nil {
				t.Fatalf("spec %q: %v", spec, err)
			}
			return p
		}
		want := Simulate(tr, []bp.Predictor{mk()}, Options{})
		for _, chunk := range []int{1, 63, 64, 65, 1000, tr.Len(), tr.Len() + 1} {
			got, err := SimulateBlocks(pt.Blocks(chunk), []bp.Predictor{mk()}, Options{})
			if err != nil {
				t.Fatalf("spec %q chunk %d: %v", spec, chunk, err)
			}
			sameOutcome(t, spec, want, got)
		}
	}
	// All specs in one call, fanned out across four workers per chunk,
	// against the sequential in-memory run.
	mkAll := func() []bp.Predictor {
		ps, err := bp.ParseAll(bp.KnownSpecs(), env)
		if err != nil {
			t.Fatal(err)
		}
		return ps
	}
	want := Simulate(tr, mkAll(), Options{BucketSize: 1000})
	for _, chunk := range []int{63, 1000, tr.Len()} {
		got, err := SimulateBlocks(pt.Blocks(chunk), mkAll(), Options{Parallel: 4, BucketSize: 1000})
		if err != nil {
			t.Fatalf("parallel chunk %d: %v", chunk, err)
		}
		sameOutcome(t, "parallel", want, got)
	}
}

// TestSimulateBlocksFromDisk closes the loop through the on-disk codec:
// encode, stream-decode with ReadBlocks, simulate — identical to the
// in-memory run, with no []Record ever materialized on the streamed side.
func TestSimulateBlocksFromDisk(t *testing.T) {
	tr := randomTrace(23, 9_000)
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatal(err)
	}
	mk := func() []bp.Predictor {
		var ps []bp.Predictor
		for _, spec := range []string{"gshare:12", "bimodal:10", "pas:8,8,2", "loop", "tage"} {
			p, err := bp.Parse(spec, bp.Env{})
			if err != nil {
				t.Fatal(err)
			}
			ps = append(ps, p)
		}
		return ps
	}
	want := Simulate(tr, mk(), Options{})
	for _, chunk := range []int{1, 257, 4096} {
		src, err := trace.ReadBlocks(bytes.NewReader(buf.Bytes()), chunk)
		if err != nil {
			t.Fatal(err)
		}
		got, err := SimulateBlocks(src, mk(), Options{})
		if err != nil {
			t.Fatalf("chunk %d: %v", chunk, err)
		}
		sameOutcome(t, "disk", want, got)
	}
}

// TestSimulateBlocksTimeline pins bucketed timelines across chunk
// boundaries: buckets that straddle chunks, divide them exactly, and
// exceed them must all match the in-memory run, including the final
// partial bucket.
func TestSimulateBlocksTimeline(t *testing.T) {
	tr := randomTrace(5, 10_050) // deliberately not a multiple of any bucket below
	pt := tr.Packed()
	mk := func() []bp.Predictor {
		g, err := bp.Parse("gshare:12", bp.Env{})
		if err != nil {
			t.Fatal(err)
		}
		l, err := bp.Parse("loop", bp.Env{})
		if err != nil {
			t.Fatal(err)
		}
		return []bp.Predictor{g, l}
	}
	for _, bucket := range []int{100, 1000, 4096} {
		want := Simulate(tr, mk(), Options{BucketSize: bucket})
		for _, chunk := range []int{1, bucket - 1, bucket, bucket + 1, 3000} {
			got, err := SimulateBlocks(pt.Blocks(chunk), mk(), Options{BucketSize: bucket})
			if err != nil {
				t.Fatal(err)
			}
			sameOutcome(t, "timeline", want, got)
		}
	}
}

// TestSimulateBlocksForceReference pins the streamed reference engine
// (scalar loop over reconstructed records) against the in-memory
// reference loop.
func TestSimulateBlocksForceReference(t *testing.T) {
	tr := randomTrace(31, 6_000)
	pt := tr.Packed()
	mk := func() []bp.Predictor {
		p, err := bp.Parse("gshare:10", bp.Env{})
		if err != nil {
			t.Fatal(err)
		}
		return []bp.Predictor{p}
	}
	want := Simulate(tr, mk(), Options{ForceReference: true})
	got, err := SimulateBlocks(pt.Blocks(777), mk(), Options{ForceReference: true})
	if err != nil {
		t.Fatal(err)
	}
	sameOutcome(t, "force-reference", want, got)
}

func TestSimulateBlocksEmpty(t *testing.T) {
	tr := trace.New("empty", 0)
	out, err := SimulateBlocks(tr.Packed().Blocks(16), nil, Options{})
	if err != nil || len(out.Results) != 0 {
		t.Fatalf("empty: %v, %d results", err, len(out.Results))
	}
	g, perr := bp.Parse("gshare:8", bp.Env{})
	if perr != nil {
		t.Fatal(perr)
	}
	out, err = SimulateBlocks(tr.Packed().Blocks(16), []bp.Predictor{g}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if out.Results[0].Total != 0 || len(out.Results[0].PerBranch) != 0 {
		t.Errorf("empty trace result: %+v", out.Results[0])
	}
}

// TestSimulateBlocksTruncatedSource surfaces decode errors from the
// source instead of returning partial results.
func TestSimulateBlocksTruncatedSource(t *testing.T) {
	tr := randomTrace(3, 5_000)
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	src, err := trace.ReadBlocks(bytes.NewReader(data[:len(data)/2]), 128)
	if err != nil {
		t.Fatal(err)
	}
	g, perr := bp.Parse("gshare:8", bp.Env{})
	if perr != nil {
		t.Fatal(perr)
	}
	if _, err := SimulateBlocks(src, []bp.Predictor{g}, Options{}); err == nil {
		t.Error("truncated source should fail the run")
	}
}
