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
// ScoreParallel 1, 2, 3 and 7, OracleStates returns the same selections,
// the same state vectors and the same counters and gauges, and the
// profile and collection passes leave every branch's
// candidate table and state histograms exactly as the serial pass does,
// entry order included — each branch sees the serial walk sequence.
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
				profiles []kernelProfile
				matchers []*beamMatcher
			}
			do := func(par int) run {
				cfg := tc.cfg
				cfg.ScoreParallel = par
				cfg.Obs = obs.New()
				var r run
				r.sels, r.states = OracleStates(pc, tc.windows, nil, cfg)
				snap := cfg.Obs.Snapshot()
				r.counters, r.gauges = snap.Counters, snap.Gauges

				cfg = cfg.WithDefaults()
				cfg.Obs = obs.New()
				r.profiles = profileShards(pt, pc, tc.windows, cfg, planShards(pc, par, nil))
				cands := profileWindows(pt, pc, tc.windows, cfg)
				r.matchers, _ = buildMatchers(sortedPCs(cands), cands, pt, nil)
				collectShards(pt, pc, tc.windows, r.matchers, planShards(pc, par, r.matchers), nil, cfg.Obs)
				return r
			}
			base := do(1)
			tc.check(t, pc, base.counters)
			for _, par := range []int{2, 3, 7} {
				got := do(par)
				for _, d := range []struct {
					what      string
					got, want any
				}{
					{"OracleStates selections", got.sels, base.sels},
					{"state vectors", got.states, base.states},
					{"counters", got.counters, base.counters},
					{"gauges", got.gauges, base.gauges},
					{"candidate tables", got.profiles, base.profiles},
					{"state histograms", got.matchers, base.matchers},
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
