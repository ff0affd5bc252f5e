package sim

import (
	"bytes"
	"testing"

	"branchcorr/internal/bp"
	"branchcorr/internal/trace"
)

// TestRunStreamMatchesRun streams an encoded trace through the default
// chunked decoder and SimulateBlocks: totals and the trace label must
// match the in-memory run.
func TestRunStreamMatchesRun(t *testing.T) {
	tr := trace.New("s", 0)
	for i := 0; i < 10000; i++ {
		tr.Append(trace.Record{
			PC:    trace.Addr(0x40 + (i%19)*4),
			Taken: (i*i)%7 < 4,
		})
	}
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatal(err)
	}
	src, err := trace.ReadBlocks(&buf, 0)
	if err != nil {
		t.Fatal(err)
	}
	out, err := SimulateBlocks(src, []bp.Predictor{bp.NewGshare(10), bp.NewLoop()}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	streamed := out.Results
	direct := Simulate(tr, []bp.Predictor{bp.NewGshare(10), bp.NewLoop()}, Options{}).Results
	for i := range direct {
		if streamed[i].Correct != direct[i].Correct || streamed[i].Total != direct[i].Total {
			t.Errorf("predictor %d: streamed %d/%d vs direct %d/%d", i,
				streamed[i].Correct, streamed[i].Total, direct[i].Correct, direct[i].Total)
		}
	}
	if streamed[0].Trace != "s" {
		t.Errorf("trace label = %q", streamed[0].Trace)
	}
}

// TestRunStreamSurfacesError cuts the encoding inside its last records:
// the decode error must fail the run rather than yield partial results.
func TestRunStreamSurfacesError(t *testing.T) {
	tr := trace.New("s", 0)
	for i := 0; i < 100; i++ {
		tr.Append(trace.Record{PC: trace.Addr(i * 4), Taken: true})
	}
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	src, err := trace.ReadBlocks(bytes.NewReader(data[:len(data)-10]), 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := SimulateBlocks(src, []bp.Predictor{bp.AlwaysTaken{}}, Options{}); err == nil {
		t.Error("truncated stream should return an error")
	}
}
