package core

import (
	"fmt"
	"reflect"
	"testing"

	"branchcorr/internal/obs"
	"branchcorr/internal/trace"
)

// Differential tests: the columnar kernels (oracle_kernel.go) must
// reproduce the reference implementation (oracle_reference.go) bit for
// bit — same Candidates (refs, scores, totals) and same Selections —
// over randomized traces, every paper window length, scheme filters,
// prune pressure, and any scoring parallelism.

// diffRng is a 32-bit LCG for building randomized differential traces.
type diffRng uint32

func (r *diffRng) next() uint32 {
	*r = *r*1664525 + 1013904223
	return uint32(*r)
}

func (r *diffRng) bit() bool { return r.next()&0x40000 != 0 }

// randomTrace builds a trace over numPCs static branches with mixed
// random outcomes, biased loop branches (every fourth PC is backward and
// mostly taken, closing iteration segments), and a correlated pair so
// selections are non-trivial.
func randomTrace(seed uint32, n, numPCs int) *trace.Trace {
	tr := trace.New(fmt.Sprintf("rand-%d", seed), 0)
	rng := diffRng(seed)
	last := false
	for i := 0; i < n; i++ {
		pc := trace.Addr(0x1000 + 4*(rng.next()%uint32(numPCs)))
		switch {
		case pc%16 == 0: // loop branch: backward, taken 3 of 4 times
			tr.Append(trace.Record{PC: pc, Taken: rng.next()%4 != 0, Backward: true})
		case pc%16 == 4: // correlated follower: copies the previous outcome
			tr.Append(trace.Record{PC: pc, Taken: last})
		default:
			last = rng.bit()
			tr.Append(trace.Record{PC: pc, Taken: last})
		}
	}
	return tr
}

// xorTriple builds a trace where branch X (0x20) is the XOR of the two
// pseudo-random branches Y (0x10) and Z (0x14): neither component alone
// predicts X, so pair selection must find the interaction.
func xorTriple(n int) *trace.Trace {
	tr := trace.New("xor", 0)
	ry, rz := diffRng(101), diffRng(202)
	for i := 0; i < n; i++ {
		y, z := ry.bit(), rz.bit()
		tr.Append(rec(0x10, y))
		tr.Append(rec(0x14, z))
		tr.Append(rec(0x20, y != z))
	}
	return tr
}

func differentialTraces() []*trace.Trace {
	return []*trace.Trace{
		randomTrace(1, 400, 6),
		randomTrace(2, 600, 12),
		randomTrace(3, 500, 25),
		correlatedPair(150, 2),
		xorTriple(120),
	}
}

// mustEqualCandidates fails unless the two candidate maps are deeply
// identical, with a per-branch diagnostic on mismatch.
func mustEqualCandidates(t *testing.T, got, want map[trace.Addr]*Candidates) {
	t.Helper()
	if reflect.DeepEqual(got, want) {
		return
	}
	for pc, w := range want {
		g, ok := got[pc]
		if !ok {
			t.Errorf("branch 0x%x: missing from kernel result", uint32(pc))
			continue
		}
		if !reflect.DeepEqual(g, w) {
			t.Errorf("branch 0x%x:\n kernel    %+v\n reference %+v", uint32(pc), g, w)
		}
	}
	for pc := range got {
		if _, ok := want[pc]; !ok {
			t.Errorf("branch 0x%x: extra in kernel result", uint32(pc))
		}
	}
}

// mustEqualSelections fails unless the two selections are deeply
// identical, with a per-branch, per-size diagnostic on mismatch.
func mustEqualSelections(t *testing.T, got, want *Selections) {
	t.Helper()
	if reflect.DeepEqual(got, want) {
		return
	}
	for k := 1; k <= MaxSelectiveRefs; k++ {
		for pc, w := range want.BySize[k] {
			if g := got.BySize[k][pc]; !reflect.DeepEqual(g, w) {
				t.Errorf("size %d branch 0x%x:\n kernel    %v\n reference %v", k, uint32(pc), g, w)
			}
		}
		for pc := range got.BySize[k] {
			if _, ok := want.BySize[k][pc]; !ok {
				t.Errorf("size %d branch 0x%x: extra in kernel result", k, uint32(pc))
			}
		}
	}
}

func TestKernelDifferentialWindows(t *testing.T) {
	for _, tr := range differentialTraces() {
		for _, w := range []int{8, 16, 32} {
			t.Run(fmt.Sprintf("%s/w=%d", tr.Name(), w), func(t *testing.T) {
				cfg := OracleConfig{WindowLen: w}
				pt := trace.Pack(tr)
				gotC := Oracle(pt, OracleOptions{OracleConfig: cfg, Stage: StageProfile}).Candidates
				wantC := ReferenceProfileCandidates(tr, cfg)
				mustEqualCandidates(t, gotC, wantC)
				mustEqualSelections(t, Oracle(pt, OracleOptions{OracleConfig: cfg, Stage: StageSelect, Candidates: gotC}), ReferenceSelectRefs(tr, wantC, cfg))
			})
		}
	}
}

func TestKernelDifferentialSchemes(t *testing.T) {
	tr := randomTrace(7, 500, 10)
	pt := trace.Pack(tr)
	for _, schemes := range [][]Scheme{
		{Occurrence},
		{BackwardCount},
		{Occurrence, BackwardCount},
	} {
		cfg := OracleConfig{Schemes: schemes}
		mustEqualSelections(t, Oracle(pt, OracleOptions{OracleConfig: cfg}), ReferenceBuildSelective(tr, cfg))
	}
}

// TestKernelDifferentialPrunePressure drives the candidate tables
// through repeated watermark prunes (tiny MaxCandidates, wide window,
// many PCs) and checks the kernel reproduces the reference's pruned
// statistics — including the documented restart-from-zero bias —
// exactly.
func TestKernelDifferentialPrunePressure(t *testing.T) {
	for _, maxCands := range []int{4, 8, 24} {
		tr := randomTrace(uint32(maxCands), 800, 30)
		pt := trace.Pack(tr)
		cfg := OracleConfig{WindowLen: 32, MaxCandidates: maxCands}
		gotC := Oracle(pt, OracleOptions{OracleConfig: cfg, Stage: StageProfile}).Candidates
		wantC := ReferenceProfileCandidates(tr, cfg)
		mustEqualCandidates(t, gotC, wantC)
		mustEqualSelections(t, Oracle(pt, OracleOptions{OracleConfig: cfg, Stage: StageSelect, Candidates: gotC}), ReferenceSelectRefs(tr, wantC, cfg))
	}
}

// TestKernelScoreParallelInvariant pins that the select stage output is
// invariant across scoring parallelism levels.
func TestKernelScoreParallelInvariant(t *testing.T) {
	tr := randomTrace(11, 600, 12)
	pt := trace.Pack(tr)
	base := Oracle(pt, OracleOptions{OracleConfig: OracleConfig{ScoreParallel: 1}})
	for _, par := range []int{2, 8, 0} {
		got := Oracle(pt, OracleOptions{OracleConfig: OracleConfig{ScoreParallel: par}})
		if !reflect.DeepEqual(got, base) {
			t.Errorf("ScoreParallel=%d selections differ from serial run", par)
		}
	}
}

// TestPruneBiasRegression pins the deterministic mid-stream prune bias
// documented on OracleConfig.MaxCandidates: a candidate evicted at the
// watermark and re-observed restarts its joint counts from zero, so
// under prune pressure its reported presence undercounts the unpruned
// run. The bias is intentional (tombstones would unbound the table);
// this test fails if either implementation's prune behavior drifts.
func TestPruneBiasRegression(t *testing.T) {
	// A three-phase trace for observer 0x80. Phase 1 shows the victim
	// (0x2000 — deliberately the highest address, so it loses every
	// equal-presence prune tie) exactly once. The flood phase fills each
	// window with seven steady PCs; their candidate refs push the live
	// table past the 2×MaxCandidates watermark and the presence-tied
	// victim is pruned. Phase 3 re-observes the victim, whose counts
	// restart from zero.
	tr := trace.New("prune-bias", 0)
	phase := func(reps int) {
		for i := 0; i < reps; i++ {
			tr.Append(rec(0x2000, true))
			tr.Append(rec(0x80, true))
		}
	}
	flood := func(iters int) {
		for i := 0; i < iters; i++ {
			for j := 0; j < 7; j++ {
				tr.Append(rec(trace.Addr(0x1000+4*uint32(j)), j%2 == 0))
			}
			tr.Append(rec(0x80, false))
		}
	}
	phase(1)
	flood(10)
	phase(40)

	victim := Ref{PC: 0x2000, Scheme: Occurrence, Tag: 0}
	presenceOf := func(cands map[trace.Addr]*Candidates) (uint32, bool) {
		c := cands[0x80]
		for i, r := range c.Refs {
			if r == victim {
				// Presence is not exported; the profile score of an
				// always-agreeing candidate equals total correct, which
				// moves with its observed count. Compare scores instead.
				return c.Scores[i], true
			}
		}
		return 0, false
	}

	unpruned := ReferenceProfileCandidates(tr, OracleConfig{WindowLen: 8})
	pruned := ReferenceProfileCandidates(tr, OracleConfig{WindowLen: 8, MaxCandidates: 8})

	su, okU := presenceOf(unpruned)
	sp, okP := presenceOf(pruned)
	if !okU || !okP {
		t.Fatalf("victim ref not in beam: unpruned=%v pruned=%v", okU, okP)
	}
	if sp >= su {
		t.Errorf("prune bias vanished: pruned score %d >= unpruned score %d "+
			"(counts no longer restart from zero after eviction?)", sp, su)
	}

	// Both implementations must agree on the biased result exactly.
	pt := trace.Pack(tr)
	for _, cfg := range []OracleConfig{
		{WindowLen: 8},
		{WindowLen: 8, MaxCandidates: 8},
	} {
		mustEqualCandidates(t, Oracle(pt, OracleOptions{OracleConfig: cfg, Stage: StageProfile}).Candidates, ReferenceProfileCandidates(tr, cfg))
	}
}

// sharedVectorTrace builds a trace whose branch X (0x80) has many path
// classes at window 32 that resolve to one window-8 state vector with
// different outcome mixes, next to many records the path memo declines.
// Each iteration runs Y (0x10, random), eleven fillers (0x20..0x48;
// fixed directions except the random F9 at 0x44, which sits inside X's
// window 8) and X. In a plain iteration X copies Y, flipped one time in
// eight: Y lies outside window 8, so classes that differ only in Y
// share X's window-8 vector but not its outcomes. One iteration in
// six first runs a burst of three random noise branches, whose path
// signatures almost never repeat, and there X copies F9 instead, so
// the declined records carry a correlation of their own.
func sharedVectorTrace(n int) *trace.Trace {
	tr := trace.New("shared-vectors", 0)
	rng := diffRng(77)
	for tr.Len() < n {
		burst := rng.next()%6 == 0
		if burst {
			for k := 0; k < 3; k++ {
				tr.Append(rec(trace.Addr(0x1000+4*(rng.next()%64)), rng.bit()))
			}
		}
		y := rng.bit()
		tr.Append(rec(0x10, y))
		var f9 bool
		for j := 0; j < 11; j++ {
			taken := j%3 == 0
			if j == 9 {
				f9 = rng.bit()
				taken = f9
			}
			tr.Append(rec(trace.Addr(0x20+4*j), taken))
		}
		x := y != (rng.next()%8 == 0)
		if burst {
			x = f9
		}
		tr.Append(rec(0x80, x))
	}
	return tr
}

// TestOracleSelectSharedStateVectors pins the collection pass's
// state-vector histograms against the reference where they merge work:
// distinct path classes of one branch that resolve to the same state
// vector with different outcome mixes must add their counts to one
// entry, and the records the memo declined must add theirs one by one.
// The trace is first checked to have both features, then the shared
// two-window pass is compared with ReferenceSelectRefs at TopK 1, 16
// and 32.
func TestOracleSelectSharedStateVectors(t *testing.T) {
	tr := sharedVectorTrace(8_000)
	pt := tr.Packed()
	windows := []int{8, 32}
	const x = trace.Addr(0x80)

	pc := ClassifyPaths(pt, windows[1], obs.New())
	cands := profileWindows(pt, pc, windows, OracleConfig{}.WithDefaults())
	matchers, matcherOf := buildMatchers(sortedPCs(cands), cands, pt.Addrs())
	bm := matcherOf[x]
	if bm == nil {
		t.Fatal("branch X has no beam")
	}
	em := newPackedEmitter(pt, windows)
	type mix struct{ n, taken int32 }
	byVec := map[uint64][]mix{}
	for c, rep := range pc.reps {
		if n := pc.counts[c]; n > 0 && pt.Addrs()[pt.IDs()[rep]] == x {
			vec := collectWalk(em, bm, int(rep))[0]
			byVec[vec] = append(byVec[vec], mix{n, pc.taken[c]})
		}
	}
	shared := false
	for _, mixes := range byVec {
		for _, m := range mixes[1:] {
			shared = shared || m.taken*mixes[0].n != mixes[0].taken*m.n
		}
	}
	if !shared {
		t.Fatalf("no two classes of X share a window-8 vector with different outcome mixes: %v", byVec)
	}
	declined, instances := 0, 0
	for i, id := range pt.IDs() {
		if pt.Addrs()[id] == x {
			instances++
			if pc.class[i] < 0 {
				declined++
			}
		}
	}
	if declined*10 < instances {
		t.Fatalf("X has %d declined records of %d, want at least a tenth", declined, instances)
	}
	walks := 0
	for _, mixes := range byVec {
		walks += len(mixes)
	}
	collectTrace(em, matchers, pc, &memoStats{})
	if entries := len(bm.hists[0].keys); entries >= walks {
		t.Errorf("X's window-8 histogram holds %d entries for %d class walks and %d declined records, want fewer than the class walks",
			entries, walks, declined)
	}

	for _, topK := range []int{1, 16, 32} {
		got := OracleWindows(tr, windows, OracleOptions{OracleConfig: OracleConfig{TopK: topK}})
		for w, n := range windows {
			t.Run(fmt.Sprintf("topk=%d/w=%d", topK, n), func(t *testing.T) {
				cfg := OracleConfig{WindowLen: n, TopK: topK}
				mustEqualSelections(t, got[w], ReferenceSelectRefs(tr, ReferenceProfileCandidates(tr, cfg), cfg))
			})
		}
	}
}
