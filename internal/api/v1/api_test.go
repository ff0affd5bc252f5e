package v1

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"

	"branchcorr/internal/bp"
	"branchcorr/internal/core"
	"branchcorr/internal/sim"
	"branchcorr/internal/trace"
	"branchcorr/internal/workloads"
)

// TestMarshalCanonical pins the canonical encoding: compact JSON, one
// trailing newline, and byte-equality for equal values.
func TestMarshalCanonical(t *testing.T) {
	resp := SimulateResponse{
		Trace:   TraceInfo{Key: "k", Name: "gcc-like", Branches: 100, Sites: 7},
		Results: []PredictorResult{{Spec: "gshare(16)", Correct: 90, Total: 100, Accuracy: 0.9}},
	}
	a, err := Marshal(resp)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasSuffix(a, []byte("\n")) {
		t.Error("canonical encoding must end in a newline")
	}
	if bytes.Contains(a[:len(a)-1], []byte("\n")) || bytes.Contains(a, []byte("  ")) {
		t.Errorf("canonical encoding must be compact: %q", a)
	}
	b, err := Marshal(resp)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Error("equal values must marshal to identical bytes")
	}

	// Encode writes exactly Marshal's bytes.
	var buf bytes.Buffer
	if err := Encode(&buf, resp); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), a) {
		t.Error("Encode and Marshal disagree")
	}
}

// TestDecodeStrictRoundTrip checks a canonical encoding decodes back to
// the original value.
func TestDecodeStrictRoundTrip(t *testing.T) {
	req := SimulateRequest{
		Trace:      TraceRef{Workload: "gcc-like", N: 1000},
		Specs:      []string{"gshare:16", "bimodal:12"},
		BucketSize: 100,
		PerBranch:  true,
	}
	b, err := Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	var got SimulateRequest
	if err := DecodeStrict(bytes.NewReader(b), &got); err != nil {
		t.Fatal(err)
	}
	if got.Trace != req.Trace || got.BucketSize != req.BucketSize ||
		got.PerBranch != req.PerBranch || len(got.Specs) != 2 {
		t.Errorf("round trip = %+v, want %+v", got, req)
	}
}

// TestDecodeStrictRejectsUnknownFields pins strict decoding: a client
// typo must fail, not silently run defaults.
func TestDecodeStrictRejectsUnknownFields(t *testing.T) {
	in := `{"trace":{"workload":"gcc-like"},"specs":["gshare:16"],"bucketsize":100}`
	var req SimulateRequest
	err := DecodeStrict(strings.NewReader(in), &req)
	if err == nil || !strings.Contains(err.Error(), "bucketsize") {
		t.Errorf("unknown field accepted, err = %v", err)
	}
}

// TestDecodeStrictRejectsTrailingData pins one-value-per-body.
func TestDecodeStrictRejectsTrailingData(t *testing.T) {
	in := `{"trace":{"workload":"gcc-like"},"specs":["gshare:16"]}{"more":1}`
	var req SimulateRequest
	if err := DecodeStrict(strings.NewReader(in), &req); err == nil {
		t.Error("trailing JSON value accepted")
	}
	// A trailing newline, as Marshal emits, is fine.
	if err := DecodeStrict(strings.NewReader(`{"specs":[]}`+"\n"), &req); err != nil {
		t.Errorf("trailing newline rejected: %v", err)
	}
}

// TestTraceRefValidate covers the ref's mutual-exclusion rules and the
// content-address key format: keys become corpus file names, so only
// the exact sha256 hex form may pass.
func TestTraceRefValidate(t *testing.T) {
	hexKey := strings.Repeat("0123456789abcdef", 4) // 64 lowercase hex
	cases := []struct {
		ref TraceRef
		ok  bool
	}{
		{TraceRef{Key: hexKey}, true},
		{TraceRef{Workload: "gcc-like"}, true},
		{TraceRef{Workload: "gcc-like", N: 500}, true},
		{TraceRef{}, false},
		{TraceRef{Key: hexKey, Workload: "gcc-like"}, false},
		{TraceRef{Key: hexKey, N: 5}, false},
		{TraceRef{Workload: "gcc-like", N: -1}, false},
		{TraceRef{Key: "abc"}, false},                          // too short
		{TraceRef{Key: hexKey + "00"}, false},                  // too long
		{TraceRef{Key: strings.ToUpper(hexKey)}, false},        // not lowercase
		{TraceRef{Key: hexKey[:62] + "zz"}, false},             // not hex
		{TraceRef{Key: "../../../../../../etc/passwd"}, false}, // traversal
		{TraceRef{Key: "../" + hexKey[:61]}, false},            // traversal, right length
	}
	for _, c := range cases {
		if err := c.ref.Validate(); (err == nil) != c.ok {
			t.Errorf("Validate(%+v) = %v, want ok=%v", c.ref, err, c.ok)
		}
	}
}

// TestErrorFrom pins the bp.ParseError mapping: the wire error carries
// the parser's kind as its code plus the spec and offending token, while
// other errors keep the caller's code.
func TestErrorFrom(t *testing.T) {
	_, perr := bp.Parse("gshare:notanumber", bp.Env{})
	if perr == nil {
		t.Fatal("expected a parse error")
	}
	e := ErrorFrom("bad-request", perr)
	if e.Code != "bad-param" || e.Spec != "gshare:notanumber" || e.Token == "" {
		t.Errorf("ErrorFrom(parse error) = %+v, want code bad-param with spec and token", e)
	}

	// Wrapped parse errors unwrap.
	e = ErrorFrom("bad-request", fmt.Errorf("spec 0: %w", perr))
	if e.Code != "bad-param" {
		t.Errorf("wrapped parse error code = %q, want bad-param", e.Code)
	}

	plain := ErrorFrom("not-found", errors.New("no such trace"))
	if plain.Code != "not-found" || plain.Message != "no such trace" || plain.Spec != "" {
		t.Errorf("ErrorFrom(plain) = %+v", plain)
	}

	if got := (&Error{Code: "internal", Message: "boom"}).Error(); got != "internal: boom" {
		t.Errorf("Error() = %q", got)
	}
}

// testTrace builds a small deterministic workload trace.
func testTrace(t *testing.T) *trace.Trace {
	t.Helper()
	w, err := workloads.ByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	return w.Generate(2000)
}

// TestNewPredictorResult checks the payload builder: counts carried
// over, per-branch accounting sorted by PC, timeline attached.
func TestNewPredictorResult(t *testing.T) {
	tr := testTrace(t)
	p, err := bp.Parse("gshare:10", bp.Env{})
	if err != nil {
		t.Fatal(err)
	}
	out := sim.Simulate(tr, []bp.Predictor{p}, sim.Options{BucketSize: 500})
	pr := NewPredictorResult(out.Results[0], out.Timelines[0], true)

	if pr.Spec != p.Name() {
		t.Errorf("Spec = %q, want canonical %q", pr.Spec, p.Name())
	}
	if pr.Correct != int64(out.Results[0].Correct) || pr.Total != int64(tr.Len()) {
		t.Errorf("counts = %d/%d, want %d/%d", pr.Correct, pr.Total, out.Results[0].Correct, tr.Len())
	}
	if len(pr.Timeline) != len(out.Timelines[0].Accuracy) {
		t.Errorf("timeline length = %d, want %d", len(pr.Timeline), len(out.Timelines[0].Accuracy))
	}
	if len(pr.PerBranch) != len(out.Results[0].PerBranch) {
		t.Fatalf("per-branch length = %d, want %d", len(pr.PerBranch), len(out.Results[0].PerBranch))
	}
	var sum int64
	for i, b := range pr.PerBranch {
		if i > 0 && pr.PerBranch[i-1].PC >= b.PC {
			// PCs are fixed-width in practice, but compare as parsed ints
			// would; the builder sorts numerically, so string order holding
			// here just documents the fixture.
			var prev, cur uint64
			fmt.Sscanf(pr.PerBranch[i-1].PC, "0x%x", &prev)
			fmt.Sscanf(b.PC, "0x%x", &cur)
			if prev >= cur {
				t.Errorf("per-branch not sorted: %s before %s", pr.PerBranch[i-1].PC, b.PC)
			}
		}
		sum += b.Total
	}
	if sum != int64(tr.Len()) {
		t.Errorf("per-branch totals sum to %d, want %d", sum, tr.Len())
	}

	// Without the flags, the optional fields stay empty.
	bare := NewPredictorResult(out.Results[0], nil, false)
	if bare.Timeline != nil || bare.PerBranch != nil {
		t.Error("optional fields populated without request flags")
	}
}

// TestNewSweepConfigs checks grid order and accuracy wiring.
func TestNewSweepConfigs(t *testing.T) {
	tr := testTrace(t)
	grid := bp.NewGshareSweep([]uint{4, 8})
	o := sim.SimulateSweep(tr, grid, sim.Options{})
	cfgs := NewSweepConfigs(o)
	if len(cfgs) != 2 {
		t.Fatalf("got %d configs, want 2", len(cfgs))
	}
	for i, c := range cfgs {
		if c.Name != o.Configs[i] || c.Correct != o.Correct[i] || c.Accuracy != o.Accuracy(i) {
			t.Errorf("config %d = %+v, want %s/%d/%g", i, c, o.Configs[i], o.Correct[i], o.Accuracy(i))
		}
	}
}

// TestNewOraclePayloads checks both oracle payload shapes: sizes 1..3
// with PC-sorted branches for full runs, PC-sorted beams for profile
// runs.
func TestNewOraclePayloads(t *testing.T) {
	tr := testTrace(t)
	sel := core.Oracle(tr, core.OracleOptions{})
	sizes := NewOracleAssignments(sel)
	if len(sizes) != core.MaxSelectiveRefs {
		t.Fatalf("got %d sizes, want %d", len(sizes), core.MaxSelectiveRefs)
	}
	for i, a := range sizes {
		if a.Size != i+1 {
			t.Errorf("sizes[%d].Size = %d, want %d", i, a.Size, i+1)
		}
		if len(a.Branches) != len(sel.BySize[a.Size]) {
			t.Errorf("size %d has %d branches, want %d", a.Size, len(a.Branches), len(sel.BySize[a.Size]))
		}
		for j := 1; j < len(a.Branches); j++ {
			var prev, cur uint64
			fmt.Sscanf(a.Branches[j-1].PC, "0x%x", &prev)
			fmt.Sscanf(a.Branches[j].PC, "0x%x", &cur)
			if prev >= cur {
				t.Errorf("size %d branches not sorted by PC", a.Size)
			}
		}
	}
	// Refs per branch at size k is at most k.
	for _, b := range sizes[0].Branches {
		if len(b.Refs) > 1 {
			t.Errorf("size-1 branch %s has %d refs", b.PC, len(b.Refs))
		}
	}

	prof := core.Oracle(tr, core.OracleOptions{Stage: core.StageProfile})
	beams := NewOracleCandidates(prof.Candidates)
	if len(beams) != len(prof.Candidates) {
		t.Fatalf("got %d beams, want %d", len(beams), len(prof.Candidates))
	}
	for _, b := range beams {
		if len(b.Refs) != len(b.Scores) {
			t.Errorf("beam %s refs/scores misaligned: %d vs %d", b.PC, len(b.Refs), len(b.Scores))
		}
	}
}

// TestNewClassShares checks the classification payload: class order,
// weights, and fractions summing to 1 over a non-empty trace.
func TestNewClassShares(t *testing.T) {
	tr := testTrace(t)
	p := core.ClassifyPerAddress(tr, core.ClassifyConfig{})
	shares := NewClassShares(p)
	want := []string{"ideal-static", "loop", "repeating-pattern", "non-repeating-pattern"}
	if len(shares) != len(want) {
		t.Fatalf("got %d classes, want %d", len(shares), len(want))
	}
	var frac float64
	var weight int64
	for i, s := range shares {
		if s.Class != want[i] {
			t.Errorf("class %d = %q, want %q", i, s.Class, want[i])
		}
		frac += s.Frac
		weight += s.DynWeight
	}
	if weight != int64(tr.Len()) {
		t.Errorf("dynamic weights sum to %d, want %d", weight, tr.Len())
	}
	if frac < 0.999 || frac > 1.001 {
		t.Errorf("fractions sum to %g, want 1", frac)
	}
}

// TestNewTraceInfo checks the trace descriptor.
func TestNewTraceInfo(t *testing.T) {
	tr := testTrace(t)
	pt := tr.Packed()
	info := NewTraceInfo("deadbeef", pt)
	if info.Key != "deadbeef" || info.Name != tr.Name() ||
		info.Branches != tr.Len() || info.Sites != pt.NumBranches() {
		t.Errorf("NewTraceInfo = %+v", info)
	}
}
