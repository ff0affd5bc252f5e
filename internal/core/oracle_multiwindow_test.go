package core

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"branchcorr/internal/obs"
	"branchcorr/internal/trace"
	"branchcorr/internal/workloads"
)

// Differential tests for the shared multi-window oracle: OracleWindows
// must deliver, for every window, exactly the Selections (and exactly
// the engine counters) a per-window Oracle loop produces, and the
// reference pipeline's selections at small n.

// fig5Windows is the Figure 5 history-length sweep.
var fig5Windows = []int{8, 12, 16, 20, 24, 28, 32}

// perWindowOracle is the loop OracleWindows replaces: one full Oracle
// run per window.
func perWindowOracle(src Source, windows []int, cfg OracleConfig) []*Selections {
	out := make([]*Selections, len(windows))
	for i, n := range windows {
		cfg.WindowLen = n
		out[i] = Oracle(src, OracleOptions{OracleConfig: cfg})
	}
	return out
}

// checkOracleWindows runs OracleWindows and the per-window loop into
// fresh registries and fails unless every window's selections and the
// deterministic counter snapshots agree. The counters allowed to differ
// are the path-signature memo's and classification's (core.oracle.memo.*
// and core.paths.classify.*: the shared pass classifies once, at the
// largest window, where the loop classifies once per window) and
// core.oracle.windows.fallbacks, which must read wantFallbacks (and be
// absent when zero, so snapshots without prunes are unchanged).
// With reference set, each window is also checked against
// ReferenceBuildSelective.
func checkOracleWindows(t *testing.T, tr *trace.Trace, cfg OracleConfig, wantFallbacks int64, reference bool) {
	t.Helper()
	shared, loop := obs.New(), obs.New()
	cfg.Obs = shared
	got := OracleWindows(tr, fig5Windows, OracleOptions{OracleConfig: cfg})
	cfg.Obs = loop
	want := perWindowOracle(tr, fig5Windows, cfg)
	cfg.Obs = nil
	if len(got) != len(fig5Windows) {
		t.Fatalf("%d selections for %d windows", len(got), len(fig5Windows))
	}
	for w, n := range fig5Windows {
		mustEqualSelections(t, got[w], want[w])
		if reference {
			rcfg := cfg
			rcfg.WindowLen = n
			mustEqualSelections(t, got[w], ReferenceBuildSelective(tr, rcfg))
		}
	}

	gs := shared.Snapshot().WithoutHistograms()
	ls := loop.Snapshot().WithoutHistograms()
	fallbacks, touched := gs.Counters["core.oracle.windows.fallbacks"]
	if fallbacks != wantFallbacks || touched != (wantFallbacks != 0) {
		t.Errorf("core.oracle.windows.fallbacks = %d (registered %v), want %d", fallbacks, touched, wantFallbacks)
	}
	delete(gs.Counters, "core.oracle.windows.fallbacks")
	if g, l := gs.Counters["core.paths.classify.passes"], ls.Counters["core.paths.classify.passes"]; g != 1 || l != int64(len(fig5Windows)) {
		t.Errorf("core.paths.classify.passes = %d shared and %d per window, want 1 and %d", g, l, len(fig5Windows))
	}
	for _, snap := range []map[string]int64{gs.Counters, ls.Counters} {
		for name := range snap {
			if strings.HasPrefix(name, "core.oracle.memo.") || strings.HasPrefix(name, "core.paths.classify.") {
				delete(snap, name)
			}
		}
	}
	if !reflect.DeepEqual(gs.Counters, ls.Counters) || !reflect.DeepEqual(gs.Gauges, ls.Gauges) {
		t.Errorf("counter snapshots differ:\n shared   %v %v\n per-window %v %v",
			gs.Counters, gs.Gauges, ls.Counters, ls.Gauges)
	}
	if n := gs.Counters["core.oracle.builds"]; n != int64(len(fig5Windows)) {
		t.Errorf("core.oracle.builds = %d, want one per window (%d)", n, len(fig5Windows))
	}
}

// TestOracleWindowsWorkloads covers every synthetic benchmark at the
// Figure 5 windows: no prune fires at the default config, so the one
// shared pass must be exact for all seven windows.
func TestOracleWindowsWorkloads(t *testing.T) {
	n := 20_000
	if testing.Short() {
		n = 5_000
	}
	for _, w := range workloads.All() {
		t.Run(w.Name(), func(t *testing.T) {
			checkOracleWindows(t, w.Generate(n), OracleConfig{}, 0, false)
		})
	}
}

// TestOracleWindowsReference pins the shared pass to the reference
// pipeline at small n: randomized and structured traces, plus a short
// prefix of two benchmarks.
func TestOracleWindowsReference(t *testing.T) {
	traces := differentialTraces()
	for _, name := range []string{"gcc", "go"} {
		w, err := workloads.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		traces = append(traces, w.Generate(2_000))
	}
	for _, tr := range traces {
		t.Run(tr.Name(), func(t *testing.T) {
			checkOracleWindows(t, tr, OracleConfig{}, 0, true)
		})
	}
}

// TestOracleWindowsVariants covers the configuration axes the shared
// pass must carry through unchanged: a tagging-scheme subset, the
// narrowest and widest beams, and a MaxCandidates small enough to
// prune, which must take (and count) the per-window fallback for every
// window but the largest.
func TestOracleWindowsVariants(t *testing.T) {
	tr := randomTrace(31, 3_000, 40)
	for _, v := range []struct {
		name      string
		cfg       OracleConfig
		fallbacks int64
	}{
		{"occurrence-only", OracleConfig{Schemes: []Scheme{Occurrence}}, 0},
		{"backward-only", OracleConfig{Schemes: []Scheme{BackwardCount}}, 0},
		{"topk=1", OracleConfig{TopK: 1}, 0},
		{"topk=32", OracleConfig{TopK: 32}, 0},
		{"prune", OracleConfig{MaxCandidates: 12}, int64(len(fig5Windows) - 1)},
	} {
		t.Run(v.name, func(t *testing.T) {
			checkOracleWindows(t, tr, v.cfg, v.fallbacks, true)
		})
	}
	// The prune variant must actually prune, or it exercises nothing.
	reg := obs.New()
	Oracle(tr, OracleOptions{OracleConfig: OracleConfig{WindowLen: 32, MaxCandidates: 12, Obs: reg}})
	if reg.Counter("core.oracle.prune.events").Value() == 0 {
		t.Fatal("prune variant fired no prunes")
	}
}

// TestOracleWindowsArgumentOrder pins the result alignment: windows in
// any order, with repeats, map to the selections of their own length.
func TestOracleWindowsArgumentOrder(t *testing.T) {
	tr := randomTrace(5, 2_000, 16)
	windows := []int{24, 8, 24, 12}
	got := OracleWindows(tr, windows, OracleOptions{})
	for i, n := range windows {
		mustEqualSelections(t, got[i], Oracle(tr, OracleOptions{OracleConfig: OracleConfig{WindowLen: n}}))
	}
	if got[0] != got[2] {
		t.Error("repeated window lengths do not share one result")
	}
	if OracleWindows(tr, nil, OracleOptions{}) != nil {
		t.Error("no windows must build nothing")
	}
	for name, call := range map[string]func(){
		"stage":  func() { OracleWindows(tr, windows, OracleOptions{Stage: StageProfile}) },
		"window": func() { OracleWindows(tr, []int{8, 0}, OracleOptions{}) },
	} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Error("did not panic")
				}
			}()
			call()
		})
	}
}

// BenchmarkOracleWindowsSmall is a quick in-package check of the shared
// pass against the per-window loop; the recorded numbers come from the
// root harness's BenchmarkOracleWindows.
func BenchmarkOracleWindowsSmall(b *testing.B) {
	tr := randomTrace(9, 50_000, 64)
	pt := tr.Packed()
	for _, impl := range []string{"loop", "shared"} {
		b.Run(fmt.Sprintf("impl=%s", impl), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if impl == "loop" {
					perWindowOracle(pt, fig5Windows, OracleConfig{})
				} else {
					OracleWindows(pt, fig5Windows, OracleOptions{})
				}
			}
		})
	}
}

// TestOracleStageSelectUnderreportedTotal pins that selection never
// reads a caller's Candidates.Total: the state histograms have no
// instance capacity to size from it, so a beam whose Total
// under-reports the branch's dynamic count must select exactly what
// the true beam does.
func TestOracleStageSelectUnderreportedTotal(t *testing.T) {
	tr := randomTrace(13, 3_000, 12)
	cands := Oracle(tr, OracleOptions{Stage: StageProfile}).Candidates
	short := make(map[trace.Addr]*Candidates, len(cands))
	for pc, c := range cands {
		cc := *c
		cc.Total = 1
		short[pc] = &cc
	}
	mustEqualSelections(t,
		Oracle(tr, OracleOptions{Stage: StageSelect, Candidates: short}),
		Oracle(tr, OracleOptions{Stage: StageSelect, Candidates: cands}))
}
