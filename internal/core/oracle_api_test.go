package core

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"branchcorr/internal/trace"
)

// The Oracle entry point is pinned stage by stage to the
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
		if got := Oracle(tr.Packed(), OracleOptions{OracleConfig: cfg}); !reflect.DeepEqual(got, want) {
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
		got := Oracle(tr.Packed(), OracleOptions{OracleConfig: cfg, Stage: StageSelect, Candidates: cands})
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

// TestOracleStagesMatchDecodedEntry pins every stage over a trace
// decoded from a chunked corpus entry to the same stage of the in-memory
// Oracle over the original trace.
func TestOracleStagesMatchDecodedEntry(t *testing.T) {
	for _, tr := range differentialTraces() {
		decoded := chunkedPacked(t, tr.Packed(), 64)
		cfg := OracleConfig{WindowLen: 16}

		want := Oracle(tr, OracleOptions{OracleConfig: cfg})
		mustEqualSelections(t, Oracle(decoded, OracleOptions{OracleConfig: cfg}), want)

		prof := Oracle(decoded, OracleOptions{OracleConfig: cfg, Stage: StageProfile})
		mustEqualCandidates(t, prof.Candidates, Oracle(tr, OracleOptions{OracleConfig: cfg, Stage: StageProfile}).Candidates)

		sel := Oracle(decoded, OracleOptions{
			OracleConfig: cfg,
			Stage:        StageSelect,
			Candidates:   prof.Candidates,
		})
		mustEqualSelections(t, sel, want)
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

// TestOracleStatesMatchesOracleWindows pins OracleStates' selections to
// per-window Oracle runs over the same windows, in argument order, with
// and without a held column (which must change no built window), and
// its loud failures, each with a message of its own: a window both
// built and held, and classes shorter than a window.
func TestOracleStatesMatchesOracleWindows(t *testing.T) {
	windows := []int{32, 8, 16}
	for _, tr := range differentialTraces() {
		pc := ClassifyPaths(tr, 32, nil)
		want := perWindowOracle(tr, windows, OracleConfig{})
		held := map[int]*Selections{12: want[2]}
		for _, h := range []map[int]*Selections{nil, held} {
			got, st := OracleStates(pc, windows, h, OracleConfig{})
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s held=%v: OracleStates selections differ from per-window Oracle runs", tr.Name(), h != nil)
			}
			cols := []int{8, 16, 32}
			if h != nil {
				cols = []int{8, 12, 16, 32}
			}
			if !reflect.DeepEqual(st.windows, cols) {
				t.Errorf("%s held=%v: states cover windows %v, want %v", tr.Name(), h != nil, st.windows, cols)
			}
		}
	}
	pc := ClassifyPaths(differentialTraces()[0], 16, nil)
	for name, tc := range map[string]struct {
		call func()
		want string
	}{
		"built and held":    {func() { OracleStates(pc, []int{8}, map[int]*Selections{8: {}}, OracleConfig{}) }, "window 8 is both built and held"},
		"classes too short": {func() { OracleStates(pc, []int{32}, nil, OracleConfig{}) }, "need window 32"},
	} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatal("did not panic")
				}
				if msg := fmt.Sprint(r); !strings.Contains(msg, tc.want) {
					t.Errorf("panic %q does not say %q", msg, tc.want)
				}
			}()
			tc.call()
		})
	}
}
