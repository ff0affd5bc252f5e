package core

import (
	"bytes"
	"fmt"
	"testing"

	"branchcorr/internal/corpus"
	"branchcorr/internal/trace"
)

// A trace that arrives chunked — a corpus entry, a bpsimd upload, a BTR1
// file — reaches the oracle decoded whole. These tests pin the oracle
// over such decoded inputs, at stored chunk sizes straddling the window
// length and down to one record per chunk, to the reference oracle (the
// executable specification) over the original trace.

// chunkSizes returns the adversarial chunk sizes for window length w:
// single-record, window±1, and a large chunk.
func chunkSizes(w int) []int {
	return []int{1, w - 1, w, w + 1, 1000}
}

// chunkedPacked round-trips pt through a corpus entry stored in chunks
// of chunk records and returns the decoded packed trace.
func chunkedPacked(t *testing.T, pt *trace.Packed, chunk int) *trace.Packed {
	t.Helper()
	var buf bytes.Buffer
	if err := corpus.Encode(&buf, pt, chunk); err != nil {
		t.Fatal(err)
	}
	got, stored, err := corpus.Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if stored != chunk {
		t.Fatalf("entry stored in %d-record chunks, want %d", stored, chunk)
	}
	return got
}

func TestProfileCandidatesBlocksMatchesPacked(t *testing.T) {
	for _, tr := range differentialTraces() {
		pt := tr.Packed()
		for _, w := range []int{8, 16, 32} {
			cfg := OracleConfig{WindowLen: w}
			want := ReferenceProfileCandidates(tr, cfg)
			for _, chunk := range chunkSizes(w) {
				t.Run(fmt.Sprintf("%s/w=%d/chunk=%d", tr.Name(), w, chunk), func(t *testing.T) {
					got := Oracle(chunkedPacked(t, pt, chunk), OracleOptions{OracleConfig: cfg, Stage: StageProfile})
					mustEqualCandidates(t, got.Candidates, want)
				})
			}
		}
	}
}

func TestSelectRefsBlocksMatchesPacked(t *testing.T) {
	for _, tr := range differentialTraces() {
		pt := tr.Packed()
		cfg := OracleConfig{WindowLen: 16}
		cands := ReferenceProfileCandidates(tr, cfg)
		want := ReferenceSelectRefs(tr, cands, cfg)
		for _, chunk := range chunkSizes(16) {
			got := Oracle(chunkedPacked(t, pt, chunk), OracleOptions{OracleConfig: cfg, Stage: StageSelect, Candidates: cands})
			mustEqualSelections(t, got, want)
		}
	}
}

// TestBuildSelectiveBlocksFromDisk closes the full loop: encode to both
// on-disk formats (BTR1, and corpus entries at small chunk sizes),
// decode, and run the whole oracle against the reference.
func TestBuildSelectiveBlocksFromDisk(t *testing.T) {
	for _, tr := range differentialTraces() {
		var buf bytes.Buffer
		if err := tr.Write(&buf); err != nil {
			t.Fatal(err)
		}
		cfg := OracleConfig{WindowLen: 16}
		want := ReferenceBuildSelective(tr, cfg)
		read, err := trace.Read(&buf)
		if err != nil {
			t.Fatal(err)
		}
		mustEqualSelections(t, Oracle(read, OracleOptions{OracleConfig: cfg}), want)
		for _, chunk := range []int{1, 17, 256} {
			mustEqualSelections(t, Oracle(chunkedPacked(t, tr.Packed(), chunk), OracleOptions{OracleConfig: cfg}), want)
		}
	}
}

// TestOracleEmptyTrace runs every stage over an empty trace, in
// memory and decoded from an empty corpus entry: the path-signature memo
// classifies nothing, and no stage selects anything.
func TestOracleEmptyTrace(t *testing.T) {
	pt := trace.New("empty", 0).Packed()
	for _, src := range []*trace.Packed{pt, chunkedPacked(t, pt, 8)} {
		if cands := Oracle(src, OracleOptions{Stage: StageProfile}).Candidates; len(cands) != 0 {
			t.Fatalf("empty profile: %d candidates", len(cands))
		}
		for _, sel := range []*Selections{
			Oracle(src, OracleOptions{}),
			Oracle(src, OracleOptions{Stage: StageSelect}),
		} {
			for k := 1; k <= MaxSelectiveRefs; k++ {
				if len(sel.BySize[k]) != 0 {
					t.Errorf("empty trace produced size-%d assignments", k)
				}
			}
		}
	}
}

// TestStreamDifferentialPrunePressure drives the profile pass through
// repeated watermark prunes (tiny MaxCandidates) over decoded corpus
// entries, where the pruned statistics must still match the reference.
func TestStreamDifferentialPrunePressure(t *testing.T) {
	tr := randomTrace(9, 800, 30)
	cfg := OracleConfig{WindowLen: 32, MaxCandidates: 8}
	want := ReferenceProfileCandidates(tr, cfg)
	for _, chunk := range []int{1, 31, 33, 777} {
		got := Oracle(chunkedPacked(t, tr.Packed(), chunk), OracleOptions{OracleConfig: cfg, Stage: StageProfile})
		mustEqualCandidates(t, got.Candidates, want)
	}
}

// TestStreamDifferentialSchemes checks scheme filtering over a decoded
// workload trace against the reference.
func TestStreamDifferentialSchemes(t *testing.T) {
	tr := workloadTrace(t, "perl", 3_000)
	decoded := chunkedPacked(t, tr.Packed(), 37)
	for _, schemes := range [][]Scheme{{Occurrence}, {BackwardCount}} {
		cfg := OracleConfig{Schemes: schemes}
		mustEqualSelections(t, Oracle(decoded, OracleOptions{OracleConfig: cfg}), ReferenceBuildSelective(tr, cfg))
	}
}
