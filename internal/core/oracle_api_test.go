package core

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"branchcorr/internal/trace"
)

// The Oracle/OracleBlocks entry points are pinned stage by stage to the
// reference oracle (the executable specification), through both Source
// forms: a *trace.Trace and its *trace.Packed view.

func TestOracleMatchesBuildSelective(t *testing.T) {
	for _, tr := range differentialTraces() {
		cfg := OracleConfig{WindowLen: 16}
		want := ReferenceBuildSelective(tr, cfg)
		if got := Oracle(tr, OracleOptions{OracleConfig: cfg}); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: Oracle(trace) differs from ReferenceBuildSelective", tr.Name())
		}
		// A *trace.Packed is a Source in its own right.
		if got := Oracle(trace.Pack(tr), OracleOptions{OracleConfig: cfg}); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: Oracle(packed) differs from ReferenceBuildSelective", tr.Name())
		}
	}
}

func TestOracleStageProfileMatchesProfileCandidates(t *testing.T) {
	for _, tr := range differentialTraces() {
		cfg := OracleConfig{WindowLen: 16, TopK: 8}
		want := ReferenceProfileCandidates(tr, cfg)
		got := Oracle(tr, OracleOptions{OracleConfig: cfg, Stage: StageProfile})
		if len(got.BySize[1]) != 0 {
			t.Errorf("%s: StageProfile filled BySize", tr.Name())
		}
		mustEqualCandidates(t, got.Candidates, want)
	}
}

func TestOracleStageSelectMatchesSelectRefs(t *testing.T) {
	for _, tr := range differentialTraces() {
		cfg := OracleConfig{WindowLen: 16}
		cands := ReferenceProfileCandidates(tr, cfg)
		want := ReferenceSelectRefs(tr, cands, cfg)
		got := Oracle(trace.Pack(tr), OracleOptions{OracleConfig: cfg, Stage: StageSelect, Candidates: cands})
		mustEqualSelections(t, got, want)
	}
}

// TestOracleStagedPipelineMatchesFull pins that profile + select staged
// through options compose to exactly the one-call pipeline.
func TestOracleStagedPipelineMatchesFull(t *testing.T) {
	tr := randomTrace(11, 700, 20)
	cfg := OracleConfig{WindowLen: 16}
	want := Oracle(tr, OracleOptions{OracleConfig: cfg})
	prof := Oracle(tr, OracleOptions{OracleConfig: cfg, Stage: StageProfile})
	got := Oracle(tr, OracleOptions{OracleConfig: cfg, Stage: StageSelect, Candidates: prof.Candidates})
	mustEqualSelections(t, got, want)
}

// TestOracleBlocksMatchesBlocksWrappers pins every OracleBlocks stage
// over a decoded BTR1 stream to the same stage of the in-memory Oracle.
func TestOracleBlocksMatchesBlocksWrappers(t *testing.T) {
	for _, tr := range differentialTraces() {
		var buf bytes.Buffer
		if err := tr.Write(&buf); err != nil {
			t.Fatal(err)
		}
		open := func() (trace.BlockSource, error) {
			return trace.ReadBlocks(bytes.NewReader(buf.Bytes()), 64)
		}
		cfg := OracleConfig{WindowLen: 16}

		want := Oracle(tr, OracleOptions{OracleConfig: cfg})
		got, err := OracleBlocks(open, OracleOptions{OracleConfig: cfg})
		if err != nil {
			t.Fatal(err)
		}
		mustEqualSelections(t, got, want)

		prof, err := OracleBlocks(open, OracleOptions{OracleConfig: cfg, Stage: StageProfile})
		if err != nil {
			t.Fatal(err)
		}
		mustEqualCandidates(t, prof.Candidates, Oracle(tr, OracleOptions{OracleConfig: cfg, Stage: StageProfile}).Candidates)

		sel, err := OracleBlocks(open, OracleOptions{
			OracleConfig: cfg,
			Stage:        StageSelect,
			Candidates:   prof.Candidates,
		})
		if err != nil {
			t.Fatal(err)
		}
		mustEqualSelections(t, sel, want)
	}
}

func TestOracleBlocksPropagatesOpenError(t *testing.T) {
	errFailedOpen := errors.New("open failed")
	openErr := func() (trace.BlockSource, error) {
		return nil, errFailedOpen
	}
	for _, stage := range []OracleStage{StageFull, StageProfile, StageSelect} {
		if _, err := OracleBlocks(openErr, OracleOptions{Stage: stage}); err != errFailedOpen {
			t.Errorf("stage %v: got %v, want errFailedOpen", stage, err)
		}
	}
}

func TestOracleStageString(t *testing.T) {
	cases := map[OracleStage]string{
		StageFull:      "full",
		StageProfile:   "profile",
		StageSelect:    "select",
		OracleStage(7): "OracleStage(7)",
	}
	for stage, want := range cases {
		if got := stage.String(); got != want {
			t.Errorf("OracleStage(%d).String() = %q, want %q", int(stage), got, want)
		}
	}
}

func TestOracleUnknownStagePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Oracle with an undefined stage should panic")
		}
	}()
	Oracle(trace.New("x", 0), OracleOptions{Stage: OracleStage(42)})
}
