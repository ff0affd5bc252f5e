package core

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"branchcorr/internal/obs"
	"branchcorr/internal/sim"
	"branchcorr/internal/trace"
	"branchcorr/internal/workloads"
)

// Exactness tests for the path-signature memo (pathmemo.go). Every
// consumer must produce what the per-record walk produces, so each test
// is a differential against a memo-free result: the reference oracle,
// per-window Oracle runs, or scalar selective replays. Most run with the
// hash seam collapsed, so every lookup collides and only the
// exact signature comparison keeps distinct windows apart.

// collideHashes makes every path signature hash to zero until the test
// ends.
func collideHashes(t *testing.T) {
	t.Helper()
	saved := pathHashMask
	pathHashMask = 0
	t.Cleanup(func() { pathHashMask = saved })
}

// workloadTrace generates n records of the named synthetic benchmark.
func workloadTrace(t *testing.T, name string, n int) *trace.Trace {
	t.Helper()
	w, err := workloads.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return w.Generate(n)
}

// signatureOf spells position i's path signature at window n out in
// full, for the brute-force check.
func signatureOf(pt *trace.Packed, i, n int) string {
	var b bytes.Buffer
	for p := i - n; p < i; p++ {
		fmt.Fprintf(&b, "%d/%v/%v ", pt.ID(p), pt.Taken(p), pt.Backward(p))
	}
	fmt.Fprintf(&b, "%d", pt.ID(i))
	return b.String()
}

// TestPathMemoClassify checks classification against spelled-out
// signatures: a classified record's representative is no later than it
// and has its exact signature, distinct classes have distinct
// signatures, and two classified records with one signature share a
// class. Windows straddle the 64-bit word boundary of the bit
// comparison (64 is bpsimd's largest window); the random trace supplies
// near-misses, the gcc trace repeats.
func TestPathMemoClassify(t *testing.T) {
	traces := []*trace.Trace{randomTrace(4, 6_000, 6), workloadTrace(t, "gcc", 6_000)}
	for _, collide := range []bool{false, true} {
		for _, tr := range traces {
			pt := tr.Packed()
			for _, n := range []int{1, 8, 32, 63, 64, 65, 130} {
				t.Run(fmt.Sprintf("collide=%v/%s/n=%d", collide, tr.Name(), n), func(t *testing.T) {
					if collide {
						collideHashes(t)
					}
					var m pathMemo
					lo := 5
					m.reset(pt.IDs(), pt.TakenWords(), pt.BackwardWords(), n, lo, pt.Len())
					classOf := map[string]int32{}
					sigs := map[int32]string{}
					hits := 0
					for i := lo; i < pt.Len(); i++ {
						c := m.classify(i)
						if c < 0 {
							if i >= n && m.inserting && len(m.reps) < m.limit {
								t.Fatalf("position %d unclassified while the memo inserts", i)
							}
							continue
						}
						if i < n {
							t.Fatalf("position %d classified with a clipped window", i)
						}
						sig := signatureOf(pt, i, n)
						rep := int(m.reps[c])
						_, known := sigs[c]
						if known == (rep == i) || rep > i || signatureOf(pt, rep, n) != sig {
							t.Fatalf("position %d: class %d (seen before: %v) has representative %d", i, c, known, rep)
						}
						if prev, ok := classOf[sig]; ok && prev != c {
							t.Fatalf("position %d: signature in classes %d and %d", i, prev, c)
						}
						if prev, ok := sigs[c]; ok && prev != sig {
							t.Fatalf("position %d: class %d holds two signatures", i, c)
						}
						classOf[sig], sigs[c] = c, sig
						if known {
							hits++
						}
					}
					if hits == 0 && n <= 32 && tr.Name() == "gcc" {
						t.Error("no record repeated a signature; the test exercises nothing")
					}
				})
			}
		}
	}
}

// TestPathMemoOracleWindows pins the memo-driven profile and collection
// passes, under colliding hashes, to per-window Oracle runs and the
// reference pipeline on workload and random traces.
func TestPathMemoOracleWindows(t *testing.T) {
	collideHashes(t)
	traces := []*trace.Trace{
		workloadTrace(t, "gcc", 3_000),
		workloadTrace(t, "m88ksim", 3_000),
		randomTrace(12, 3_000, 6),
		randomTrace(13, 2_000, 40),
	}
	for _, tr := range traces {
		t.Run(tr.Name(), func(t *testing.T) {
			checkOracleWindows(t, tr, OracleConfig{}, 0, true)
			reg := obs.New()
			OracleWindows(tr, fig5Windows, OracleOptions{OracleConfig: OracleConfig{Obs: reg}})
			if !strings.HasPrefix(tr.Name(), "rand-") && reg.Counter("core.oracle.memo.hits").Value() == 0 {
				t.Error("the memo served no record; the test exercises nothing")
			}
		})
	}
}

// TestPathMemoPruneRestart drives the profile pass through watermark
// prunes on a trace whose signatures repeat: tables that took class
// walks and then pruned must be rebuilt by the per-record walk, counted
// in core.oracle.memo.reruns, and every window must still match the
// per-window loop and the reference.
func TestPathMemoPruneRestart(t *testing.T) {
	collideHashes(t)
	tr := workloadTrace(t, "gcc", 3_000)
	cfg := OracleConfig{MaxCandidates: 12}
	checkOracleWindows(t, tr, cfg, int64(len(fig5Windows)-1), true)
	reg := obs.New()
	cfg.WindowLen, cfg.Obs = 32, reg
	Oracle(tr, OracleOptions{OracleConfig: cfg})
	if reg.Counter("core.oracle.memo.reruns").Value() == 0 {
		t.Fatal("no pruned table took the rerun; the test exercises nothing")
	}
}

// TestPathMemoWindow64 runs the oracle at bpsimd's largest window, where
// the signature's bit words span two or three column words, against the
// reference.
func TestPathMemoWindow64(t *testing.T) {
	collideHashes(t)
	for _, tr := range []*trace.Trace{workloadTrace(t, "compress", 2_000), randomTrace(14, 1_500, 5)} {
		t.Run(tr.Name(), func(t *testing.T) {
			cfg := OracleConfig{WindowLen: 64}
			mustEqualSelections(t, Oracle(tr, OracleOptions{OracleConfig: cfg}), ReferenceBuildSelective(tr, cfg))
		})
	}
}

// scalarSelective replays tr through independent scalar selective
// predictors, one per config, and returns each config's correct count.
func scalarSelective(tr *trace.Trace, cfgs []SelectiveConfig) []int64 {
	want := make([]int64, len(cfgs))
	for c, cfg := range cfgs {
		p := NewSelectiveMode(cfg.Name, cfg.Window, cfg.Assign, cfg.Mode)
		for _, r := range tr.Records() {
			if p.Predict(r) == r.Taken {
				want[c]++
			}
			p.Update(r)
		}
	}
	return want
}

// oracleSweepConfigs is a Figure 5-shaped grid over tr: each window's
// oracle-chosen 3-ref assignment, in direction and presence modes.
func oracleSweepConfigs(tr *trace.Trace, windows []int) []SelectiveConfig {
	sels := OracleWindows(tr, windows, OracleOptions{})
	var cfgs []SelectiveConfig
	for w, n := range windows {
		for _, mode := range []Mode{ModeDirection, ModePresence} {
			cfgs = append(cfgs, SelectiveConfig{Name: fmt.Sprintf("sel3(%d,%d)", n, mode), Window: n, Assign: sels[w].BySize[3], Mode: mode})
		}
	}
	return cfgs
}

// checkSweepRanges fails unless the fused sweep over tr matches the
// scalar replays in memory and as SweepBlock calls over consecutive
// [Lo, Hi) ranges of every chunk size, one memo per call.
func checkSweepRanges(t *testing.T, tr *trace.Trace, cfgs []SelectiveConfig, chunks []int) {
	t.Helper()
	want := scalarSelective(tr, cfgs)
	check := func(how string, got []int64) {
		t.Helper()
		for c := range want {
			if got[c] != want[c] {
				t.Errorf("%s config %s: %d correct (fused) vs %d (scalar)", how, cfgs[c].Name, got[c], want[c])
			}
		}
	}
	check("in-memory", sim.SimulateSweep(tr, NewSelectiveSweep("sel", cfgs), sim.Options{}).Correct)
	pt := tr.Packed()
	for _, chunk := range chunks {
		got := make([]int64, len(cfgs))
		for c, n := range selSweepTotals(NewSelectiveSweep("sel", cfgs), pt, chunk) {
			got[c] = int64(n)
		}
		check(fmt.Sprintf("chunk=%d", chunk), got)
	}
}

// TestPathMemoSelectiveSweep pins the sweep's cached per-class pattern
// indices, under colliding hashes, to scalar replays: in memory (one
// block, one memo) and over ranges at chunk sizes around the largest
// window, where each range's memo starts empty and its records look
// back across the range boundary.
func TestPathMemoSelectiveSweep(t *testing.T) {
	collideHashes(t)
	t.Run("sel-sweep", func(t *testing.T) {
		tr := selSweepTrace(1_500)
		checkSweepRanges(t, tr, selSweepConfigs(), []int{1, 31, 32, 33, 4097})
	})
	t.Run("gcc", func(t *testing.T) {
		tr := workloadTrace(t, "gcc", 6_000)
		checkSweepRanges(t, tr, oracleSweepConfigs(tr, []int{8, 16, 32}), []int{1, 31, 32, 33, 4097})
	})
}

// TestPathMemoOracleDecoded pins the oracle, whose profile and
// collection walk once per class, to the reference oracle, which walks
// every record, under colliding hashes and including a MaxCandidates
// small enough that tables prune. The trace is decoded from corpus
// entries stored at chunk sizes 1, n−1, n, n+1 and 4097.
func TestPathMemoOracleDecoded(t *testing.T) {
	collideHashes(t)
	tr := workloadTrace(t, "gcc", 6_000)
	pt := tr.Packed()
	for _, cfg := range []OracleConfig{{WindowLen: 16}, {WindowLen: 32, MaxCandidates: 12}} {
		n := cfg.WindowLen
		want := ReferenceBuildSelective(tr, cfg)
		wantCands := ReferenceProfileCandidates(tr, cfg)
		for _, chunk := range []int{1, n - 1, n, n + 1, 4097} {
			t.Run(fmt.Sprintf("n=%d/max=%d/chunk=%d", n, cfg.MaxCandidates, chunk), func(t *testing.T) {
				decoded := chunkedPacked(t, pt, chunk)
				mustEqualCandidates(t, Oracle(decoded, OracleOptions{OracleConfig: cfg, Stage: StageProfile}).Candidates, wantCands)
				mustEqualSelections(t, Oracle(decoded, OracleOptions{OracleConfig: cfg}), want)
			})
		}
	}
}

// TestPathMemoHighEntropy covers traces where signatures almost never
// repeat, which drive the memo's bypass: about 50k records over 2000
// sites. The oracle (memo, then bypass) must match the reference
// oracle (every record walks), and the sweep must match its scalar
// replays.
func TestPathMemoHighEntropy(t *testing.T) {
	n, sites := 50_000, 2000
	if testing.Short() {
		n = 12_000
	}
	tr := randomTrace(15, n, sites)
	pt := tr.Packed()

	var m pathMemo
	m.reset(pt.IDs(), pt.TakenWords(), pt.BackwardWords(), 16, 0, pt.Len())
	for i := 0; i < pt.Len(); i++ {
		m.classify(i)
	}
	if m.inserting || len(m.reps) > pathMemoEpoch {
		t.Errorf("bypass did not engage: inserting %v with %d classes", m.inserting, len(m.reps))
	}

	cfg := OracleConfig{WindowLen: 16}
	want := ReferenceBuildSelective(tr, cfg)
	mustEqualSelections(t, Oracle(pt, OracleOptions{OracleConfig: cfg}), want)

	cfgs := []SelectiveConfig{
		{Name: "sel3(16)", Window: 16, Assign: want.BySize[3]},
		{Name: "sel2(32)", Window: 32, Assign: want.BySize[2]},
	}
	checkSweepRanges(t, tr, cfgs, []int{4097})
}

// lcgTrace is a trace of n records over sites branch sites with
// pseudo-random outcomes, in the shape of the root benchmarks' random
// traces: with few sites, a record's window-16 signature almost never
// repeats, so the classification's bypass engages.
func lcgTrace(n, sites int) *trace.Trace {
	tr := trace.New(fmt.Sprintf("lcg%d", sites), n)
	x := uint32(1)
	next := func() uint32 {
		x = x*1664525 + 1013904223
		return x
	}
	for i := 0; i < n; i++ {
		site := (next() >> 8) % uint32(sites)
		tr.Append(trace.Record{PC: trace.Addr(0x1000 + 4*site), Taken: next()&0x40000 != 0, Backward: site%4 == 0})
	}
	return tr
}

// TestPathClassesSharedGrid pins the per-branch bundle's window-16
// selective grid (oracle-chosen 1-, 2- and 3-ref histories and the
// presence-mode 3-ref one) over shared path classes to per-record
// NewSelectiveMode replays: over classes at window 32, as Figure 5's
// step shares them, over its own window-16 classes, and classifying
// itself, sequential and config-sharded. The oracle reading the
// window-32 classes must select what it selects over its own. One trace
// drives the classification's bypass, the other leaves one-record
// classes that walk on their own next to repeated ones.
func TestPathClassesSharedGrid(t *testing.T) {
	for _, tc := range []struct {
		tr     *trace.Trace
		bypass bool
	}{
		{lcgTrace(30_000, 16), true},
		{workloadTrace(t, "gcc", 20_000), false},
	} {
		t.Run(tc.tr.Name(), func(t *testing.T) {
			tr := tc.tr
			pc32, pc16 := ClassifyPaths(tr, 32, obs.New()), ClassifyPaths(tr, 16, obs.New())
			classified, singletons, repeated := 0, 0, 0
			for _, c := range pc32.class {
				if c >= 0 {
					classified++
				}
			}
			for _, n := range pc32.counts {
				if n == 0 {
					singletons++
				} else {
					repeated++
				}
			}
			if tc.bypass && classified*10 > tr.Len() {
				t.Fatalf("%d of %d records classified at window 32; the bypass did not engage", classified, tr.Len())
			}
			if !tc.bypass && (singletons == 0 || repeated == 0) {
				t.Fatalf("%d one-record and %d repeated classes at window 32, want both", singletons, repeated)
			}

			cfg := OracleConfig{WindowLen: 16}
			sels := Oracle(tr, OracleOptions{OracleConfig: cfg})
			mustEqualSelections(t, Oracle(pc32, OracleOptions{OracleConfig: cfg}), sels)
			var cfgs []SelectiveConfig
			for k := 1; k <= MaxSelectiveRefs; k++ {
				cfgs = append(cfgs, SelectiveConfig{Name: fmt.Sprintf("sel%d(16)", k), Window: 16, Assign: sels.BySize[k]})
			}
			cfgs = append(cfgs, SelectiveConfig{Name: "presence3(16)", Window: 16, Assign: sels.BySize[3], Mode: ModePresence})
			want := scalarSelective(tr, cfgs)
			for _, classes := range []struct {
				name string
				pc   *PathClasses
			}{{"shared32", pc32}, {"shared16", pc16}, {"own", nil}} {
				for _, parallel := range []int{1, 2} {
					got := sim.SimulateSweep(tr, NewSelectiveSweepOver(classes.pc, "sel", cfgs), sim.Options{Parallel: parallel}).Correct
					for c := range want {
						if got[c] != want[c] {
							t.Errorf("%s parallel=%d config %s: %d correct (fused) vs %d (scalar)",
								classes.name, parallel, cfgs[c].Name, got[c], want[c])
						}
					}
				}
			}
		})
	}
}
