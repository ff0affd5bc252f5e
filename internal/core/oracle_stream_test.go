package core

import (
	"bytes"
	"fmt"
	"testing"

	"branchcorr/internal/trace"
)

// Streamed-vs-packed differential tests: the oracle over a chunked
// BlockSource — at chunk sizes straddling the window length and down to
// one record per chunk — must be bit-identical to the packed in-memory
// path, which is itself pinned against the reference implementation.

// streamChunks returns the adversarial chunk sizes for window length w:
// single-record, window±1 (carry exactly full, one short, one over), and
// a large chunk.
func streamChunks(w int) []int {
	return []int{1, w - 1, w, w + 1, 1000}
}

// once adapts an already-open single-pass source to OracleBlocks'
// opener contract, for the one-pass stage (StageProfile).
func once(src trace.BlockSource) func() (trace.BlockSource, error) {
	return func() (trace.BlockSource, error) { return src, nil }
}

// streamProfile is OracleBlocks' StageProfile projected to its
// candidates.
func streamProfile(src trace.BlockSource, cfg OracleConfig) (map[trace.Addr]*Candidates, error) {
	sel, err := OracleBlocks(once(src), OracleOptions{OracleConfig: cfg, Stage: StageProfile})
	if err != nil {
		return nil, err
	}
	return sel.Candidates, nil
}

func TestProfileCandidatesBlocksMatchesPacked(t *testing.T) {
	for _, tr := range differentialTraces() {
		pt := trace.Pack(tr)
		for _, w := range []int{8, 16, 32} {
			cfg := OracleConfig{WindowLen: w}
			want := Oracle(pt, OracleOptions{OracleConfig: cfg, Stage: StageProfile}).Candidates
			for _, chunk := range streamChunks(w) {
				t.Run(fmt.Sprintf("%s/w=%d/chunk=%d", tr.Name(), w, chunk), func(t *testing.T) {
					got, err := streamProfile(pt.Blocks(chunk), cfg)
					if err != nil {
						t.Fatal(err)
					}
					mustEqualCandidates(t, got, want)
				})
			}
		}
	}
}

func TestSelectRefsBlocksMatchesPacked(t *testing.T) {
	for _, tr := range differentialTraces() {
		pt := trace.Pack(tr)
		cfg := OracleConfig{WindowLen: 16}
		cands := Oracle(pt, OracleOptions{OracleConfig: cfg, Stage: StageProfile}).Candidates
		want := Oracle(pt, OracleOptions{OracleConfig: cfg, Stage: StageSelect, Candidates: cands})
		for _, chunk := range streamChunks(16) {
			got, err := OracleBlocks(func() (trace.BlockSource, error) {
				return pt.Blocks(chunk), nil
			}, OracleOptions{OracleConfig: cfg, Stage: StageSelect, Candidates: cands})
			if err != nil {
				t.Fatalf("%s chunk %d: %v", tr.Name(), chunk, err)
			}
			mustEqualSelections(t, got, want)
		}
	}
}

// TestBuildSelectiveBlocksFromDisk closes the full loop: encode to the
// on-disk format, run both oracle passes through the streaming decoder
// at small chunk sizes, compare against the in-memory pipeline.
func TestBuildSelectiveBlocksFromDisk(t *testing.T) {
	for _, tr := range differentialTraces() {
		var buf bytes.Buffer
		if err := tr.Write(&buf); err != nil {
			t.Fatal(err)
		}
		cfg := OracleConfig{WindowLen: 16}
		want := Oracle(trace.Pack(tr), OracleOptions{OracleConfig: cfg})
		for _, chunk := range []int{1, 17, 256} {
			got, err := OracleBlocks(func() (trace.BlockSource, error) {
				return trace.ReadBlocks(bytes.NewReader(buf.Bytes()), chunk)
			}, OracleOptions{OracleConfig: cfg})
			if err != nil {
				t.Fatalf("%s chunk %d: %v", tr.Name(), chunk, err)
			}
			mustEqualSelections(t, got, want)
		}
	}
}

// TestStreamDifferentialPrunePressure drives the streamed profile pass
// through repeated watermark prunes (tiny MaxCandidates), where any
// divergence in emission order across chunk boundaries would change
// which candidates are evicted.
func TestStreamDifferentialPrunePressure(t *testing.T) {
	tr := randomTrace(9, 800, 30)
	pt := trace.Pack(tr)
	cfg := OracleConfig{WindowLen: 32, MaxCandidates: 8}
	want := Oracle(pt, OracleOptions{OracleConfig: cfg, Stage: StageProfile}).Candidates
	for _, chunk := range []int{1, 31, 33, 777} {
		got, err := streamProfile(pt.Blocks(chunk), cfg)
		if err != nil {
			t.Fatal(err)
		}
		mustEqualCandidates(t, got, want)
	}
}

// TestStreamDifferentialSchemes checks scheme filtering through the
// streamed pipeline.
func TestStreamDifferentialSchemes(t *testing.T) {
	tr := randomTrace(7, 500, 10)
	pt := trace.Pack(tr)
	for _, schemes := range [][]Scheme{{Occurrence}, {BackwardCount}} {
		cfg := OracleConfig{Schemes: schemes}
		want := Oracle(pt, OracleOptions{OracleConfig: cfg})
		got, err := OracleBlocks(func() (trace.BlockSource, error) {
			return pt.Blocks(37), nil
		}, OracleOptions{OracleConfig: cfg})
		if err != nil {
			t.Fatal(err)
		}
		mustEqualSelections(t, got, want)
	}
}

// TestOracleBlocksTruncatedSource surfaces decoder errors from either
// pass instead of returning a result built from a partial stream.
func TestOracleBlocksTruncatedSource(t *testing.T) {
	tr := randomTrace(3, 600, 8)
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()[:buf.Len()/2]
	src, err := trace.ReadBlocks(bytes.NewReader(data), 64)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := streamProfile(src, OracleConfig{}); err == nil {
		t.Error("profile over truncated stream should fail")
	}
	if _, err := OracleBlocks(func() (trace.BlockSource, error) {
		return trace.ReadBlocks(bytes.NewReader(data), 64)
	}, OracleOptions{OracleConfig: OracleConfig{}}); err == nil {
		t.Error("build over truncated stream should fail")
	}
}

func TestOracleBlocksEmptyTrace(t *testing.T) {
	pt := trace.Pack(trace.New("empty", 0))
	cands, err := streamProfile(pt.Blocks(8), OracleConfig{})
	if err != nil || len(cands) != 0 {
		t.Fatalf("empty profile: %v, %d candidates", err, len(cands))
	}
	sel, err := OracleBlocks(func() (trace.BlockSource, error) {
		return pt.Blocks(8), nil
	}, OracleOptions{OracleConfig: OracleConfig{}})
	if err != nil {
		t.Fatal(err)
	}
	for k := 1; k <= MaxSelectiveRefs; k++ {
		if len(sel.BySize[k]) != 0 {
			t.Errorf("empty trace produced size-%d assignments", k)
		}
	}
}
