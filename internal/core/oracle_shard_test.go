package core

import (
	"fmt"
	"reflect"
	"testing"

	"branchcorr/internal/obs"
	"branchcorr/internal/trace"
)

// shardCase is one trace the shard-invariance test runs the oracle over.
type shardCase struct {
	name    string
	tr      *trace.Trace
	windows []int
	cfg     OracleConfig
	check   func(t *testing.T, pc *PathClasses, counters map[string]int64)
}

// dominantTrace builds a trace in which branch 0x80 holds four of every
// five records: a loop-like run of four, the last one mostly not taken,
// after one of three other branches. Paths repeat, so every branch has
// classes, and the rare flips leave it declined records too.
func dominantTrace(n int) *trace.Trace {
	tr := trace.New("dominant", 0)
	rng := diffRng(31)
	for tr.Len() < n {
		other := trace.Addr(0x1000 + 4*(rng.next()%3))
		tr.Append(trace.Record{PC: other, Taken: other != 0x1004, Backward: other == 0x1000})
		for k := 0; k < 4; k++ {
			tr.Append(rec(0x80, k < 3 || rng.next()%16 == 0))
		}
	}
	return tr
}

// fewBranchTrace builds a trace over three branches: a loop branch
// taken three times in four, a follower that copies it, and a branch
// that flips one time in eight.
func fewBranchTrace(n int) *trace.Trace {
	tr := trace.New("few", 0)
	rng := diffRng(53)
	for i := 0; tr.Len() < n; i++ {
		loop := i%4 != 3
		tr.Append(trace.Record{PC: 0x1000, Taken: loop, Backward: true})
		tr.Append(rec(0x1004, loop))
		tr.Append(rec(0x1008, rng.next()%8 == 0))
	}
	return tr
}

// walkCounts returns each dense ID's declined-record and class walks
// over pc.
func walkCounts(pc *PathClasses) (declined, classes []int) {
	declined = make([]int, pc.pt.NumBranches())
	classes = make([]int, pc.pt.NumBranches())
	for k, c := range pc.class {
		if c < 0 {
			declined[pc.ids[k]]++
		}
	}
	for c, rep := range pc.reps {
		if pc.counts[c] > 0 {
			classes[pc.ids[rep]]++
		}
	}
	return declined, classes
}

// walkShares returns each dense ID's share of pc's walks.
func walkShares(pc *PathClasses) []float64 {
	declined, classes := walkCounts(pc)
	shares := make([]float64, len(declined))
	total := 0.0
	for id := range shares {
		shares[id] = float64(declined[id] + classes[id])
		total += shares[id]
	}
	for id := range shares {
		shares[id] /= total
	}
	return shares
}

// TestOracleShardInvariant pins the oracle's branch sharding: at
// ScoreParallel 1, 2, 3, 7 and 8, OracleStates returns the same
// selections, the same state vectors and the same counters and gauges —
// the kept-entry peak (core.oracle.retained.peak_bytes) included, a
// maximum over branches — and every window's StageProfile candidates
// are those of the serial pass: each branch sees the serial walk
// sequence.
// The traces cover a MaxCandidates small enough to force watermark
// prunes, class-order reruns and per-window fallbacks; one branch
// carrying most walks; and fewer branches than workers. In each, some
// branch walks both declined records and classes, so a shard that
// reordered them would show in its tables.
func TestOracleShardInvariant(t *testing.T) {
	cases := []shardCase{
		{
			name: "prunes", tr: sharedVectorTrace(2_000), windows: []int{8, 16, 32},
			cfg: OracleConfig{MaxCandidates: 6},
			check: func(t *testing.T, _ *PathClasses, counters map[string]int64) {
				for _, name := range []string{"core.oracle.prune.events", "core.oracle.memo.reruns", "core.oracle.windows.fallbacks"} {
					if counters[name] == 0 {
						t.Errorf("%s = 0: the case must exercise it", name)
					}
				}
			},
		},
		{
			name: "dominant", tr: dominantTrace(8_000), windows: []int{8, 16},
			check: func(t *testing.T, pc *PathClasses, _ map[string]int64) {
				shares := walkShares(pc)
				top := 0.0
				for _, s := range shares {
					top = max(top, s)
				}
				if top < 0.5 {
					t.Errorf("largest branch holds %.2f of the walks, want a majority", top)
				}
			},
		},
		{
			name: "few-branches", tr: fewBranchTrace(3_000), windows: []int{8, 32},
			check: func(t *testing.T, pc *PathClasses, _ map[string]int64) {
				if n := planShards(pc, 7, nil).n; n != 3 {
					t.Errorf("7 workers over 3 branches make %d shards, want 3", n)
				}
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			pt := tc.tr.Packed()
			pc := ClassifyPaths(pt, tc.windows[len(tc.windows)-1], obs.New())
			mixed := false
			declined, classes := walkCounts(pc)
			for id := range declined {
				mixed = mixed || declined[id] > 0 && classes[id] > 0
			}
			if !mixed {
				t.Fatal("no branch walks both declined records and classes")
			}
			type run struct {
				sels     []*Selections
				states   *BeamStates
				counters map[string]int64
				gauges   map[string]int64
				cands    []map[trace.Addr]*Candidates
			}
			do := func(par int) run {
				cfg := tc.cfg
				cfg.ScoreParallel = par
				cfg.Obs = obs.New()
				var r run
				r.sels, r.states = OracleStates(pc, tc.windows, nil, cfg)
				snap := cfg.Obs.Snapshot()
				r.counters, r.gauges = snap.Counters, snap.Gauges
				for _, n := range tc.windows {
					cfg.WindowLen = n
					r.cands = append(r.cands, Oracle(pc, OracleOptions{OracleConfig: cfg, Stage: StageProfile}).Candidates)
				}
				return r
			}
			base := do(1)
			tc.check(t, pc, base.counters)
			if base.gauges["core.oracle.retained.peak_bytes"] <= 0 {
				t.Errorf("core.oracle.retained.peak_bytes = %d, want the largest branch's kept entries", base.gauges["core.oracle.retained.peak_bytes"])
			}
			for _, par := range []int{2, 3, 7, 8} {
				got := do(par)
				for _, d := range []struct {
					what      string
					got, want any
				}{
					{"OracleStates selections", got.sels, base.sels},
					{"state vectors", got.states, base.states},
					{"counters", got.counters, base.counters},
					{"gauges", got.gauges, base.gauges},
					{"kept-entry peak", got.gauges["core.oracle.retained.peak_bytes"], base.gauges["core.oracle.retained.peak_bytes"]},
					{"StageProfile candidates", got.cands, base.cands},
				} {
					if !reflect.DeepEqual(d.got, d.want) {
						t.Errorf("ScoreParallel=%d: %s differ from the serial run", par, d.what)
					}
				}
			}
		})
	}
}

// TestPlanShardsBalance pins the shard plan: every branch with a walk
// sits on exactly one shard, branches without one on none, and the
// largest-first split leaves no shard more than one branch's walks
// above the lightest.
func TestPlanShardsBalance(t *testing.T) {
	for _, tr := range []*trace.Trace{sharedVectorTrace(6_000), dominantTrace(8_000), fewBranchTrace(3_000), randomTrace(9, 20_000, 40)} {
		pc := ClassifyPaths(tr.Packed(), 16, obs.New())
		shares := walkShares(pc)
		for _, par := range []int{2, 3, 7} {
			t.Run(fmt.Sprintf("%s/par=%d", tr.Name(), par), func(t *testing.T) {
				sh := planShards(pc, par, nil)
				load := make([]float64, sh.n)
				biggest := 0.0
				for id, s := range sh.of {
					if (s >= 0) != (shares[id] > 0) {
						t.Fatalf("branch %d with walk share %.3f on shard %d", id, shares[id], s)
					}
					if s >= 0 {
						load[s] += shares[id]
						biggest = max(biggest, shares[id])
					}
				}
				lo, hi := load[0], load[0]
				for _, l := range load {
					lo, hi = min(lo, l), max(hi, l)
				}
				if hi-lo > biggest+1e-9 {
					t.Errorf("shard loads %v spread %.3f, more than the largest branch's %.3f", load, hi-lo, biggest)
				}
			})
		}
	}
}

// TestOracleKeptEntriesMatchWalks pins the two ways a walk resolves to
// each other: from the entries its profile walk kept, and by walking
// again against its branch's beam keys. With keptEntriesCap at 0 every
// walk walks again, which is the baseline; at a small cap each branch
// resolves its first walks from their entries and walks the rest again;
// by default every walk of the small traces keeps. Every run must return
// the baseline's selections, state vectors and counters (the kept-entry
// peak aside), and at 0 no branch may hold more than one walk's entries.
//
// The cases with a small MaxCandidates, many windows or a single window
// over very many keys stop a branch's keeping before its first prune —
// at the cap, or when a candidate index outgrows the entries' field —
// so the walks it kept before the prune must not resolve through the
// pruned, rerun or fallback table.
func TestOracleKeptEntriesMatchWalks(t *testing.T) {
	many := []int{4, 8, 12, 16, 20, 24, 28, 30, 32} // 9 columns: a 2047-candidate field
	for _, tc := range []struct {
		name    string
		tr      *trace.Trace
		windows []int
		maxCand int
		topK    int
		limits  []int
	}{
		{"", sharedVectorTrace(4_000), []int{8, 16, 32}, 0, 0, []int{300}},
		{"", dominantTrace(6_000), []int{4, 16}, 0, 0, []int{300}},
		{"", randomTrace(5, 5_000, 24), []int{8, 12, 16, 20, 24, 28, 32}, 0, 0, []int{300}},
		{"cap-then-prune", sprawlTrace(6_000, 60, 4), []int{4, 8}, 24, 0, []int{40, 300}},
		{"cap-then-prune-classes", sprawlTrace(6_000, 60, 2), []int{8}, 24, 0, []int{40, 300}},
		{"field-then-prune", sprawlTrace(6_000, 2_100, 1), many, 1_030, 4, nil},
		{"one-window-field-then-prune", sprawlTrace(86_000, 34_000, 1), []int{8}, 16_400, 4, nil},
	} {
		name := tc.name
		if name == "" {
			name = tc.tr.Name()
		}
		t.Run(name, func(t *testing.T) {
			pc := ClassifyPaths(tc.tr, tc.windows[len(tc.windows)-1], obs.New())
			type run struct {
				sels     []*Selections
				states   *BeamStates
				counters map[string]int64
				retained int64
			}
			do := func(limit int) run {
				old := keptEntriesCap
				keptEntriesCap = limit
				defer func() { keptEntriesCap = old }()
				reg := obs.New()
				var r run
				r.sels, r.states = OracleStates(pc, tc.windows, nil, OracleConfig{MaxCandidates: tc.maxCand, TopK: tc.topK, Obs: reg})
				snap := reg.Snapshot()
				r.counters, r.retained = snap.Counters, snap.Gauges["core.oracle.retained.peak_bytes"]
				return r
			}
			base := do(0)
			// A walk checks the cap once it has kept its entries, so a
			// branch past it held one walk's at most: two per window entry.
			if oneWalk := int64(2 * 2 * tc.windows[len(tc.windows)-1]); base.retained > oneWalk {
				t.Errorf("keptEntriesCap=0: %d bytes kept, more than one walk's %d", base.retained, oneWalk)
			}
			if tc.maxCand > 0 && base.counters["core.oracle.prune.events"] == 0 {
				t.Fatal("no table pruned")
			}
			for _, limit := range append(tc.limits, keptEntriesCap) {
				got := do(limit)
				if limit == keptEntriesCap && got.retained == 0 {
					t.Error("no branch kept entries by default")
				}
				if !reflect.DeepEqual(got.sels, base.sels) || !reflect.DeepEqual(got.states, base.states) || !reflect.DeepEqual(got.counters, base.counters) {
					t.Errorf("keptEntriesCap=%d: selections, state vectors or counters differ from walking every walk again", limit)
				}
			}
		})
	}
}

// sprawlTrace builds a trace in which branch 0x80 follows every other
// branch record. For its first fifth the others are a two-branch loop,
// so 0x80's first walks meet few distinct candidates; after that they
// cycle through sites branches, so it gains new ones walk after walk.
// Each other branch repeats for loop records, so with loop above 1
// paths repeat and 0x80 has classes as well as declined records.
func sprawlTrace(n, sites, loop int) *trace.Trace {
	tr := trace.New(fmt.Sprintf("sprawl-%d-%d", sites, loop), 0)
	rng := diffRng(71)
	for i, drawn := 0, 0; tr.Len() < n; i++ {
		pc := trace.Addr(0x1000 + 4*(i%2))
		if tr.Len() >= n/5 {
			pc = trace.Addr(0x1000 + 4*(drawn*7919%sites)) // sites is coprime to 7919
			drawn++
		}
		for k := 0; k < loop && tr.Len() < n; k++ {
			tr.Append(trace.Record{PC: pc, Taken: rng.bit()})
			tr.Append(rec(0x80, rng.bit()))
		}
	}
	return tr
}
