package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"branchcorr/internal/bp"
	"branchcorr/internal/obs"
	"branchcorr/internal/sim"
	"branchcorr/internal/trace"
)

// referenceClassify is the executable specification of
// ClassifyPerAddress: every class predictor, the 32 fixed-k predictors
// included, runs over the whole trace on the per-record reference loop,
// and each branch's best fixed period is the highest count, ties to the
// lowest k.
func referenceClassify(tr *trace.Trace, cfg ClassifyConfig) *PAClassification {
	cfg = cfg.WithDefaults()
	stats := trace.Summarize(tr)
	preds := []bp.Predictor{bp.NewIdealStatic(stats), bp.NewLoop(), bp.NewBlock(), bp.NewIFPAs(cfg.IFPAsHistoryBits)}
	for k := 1; k <= bp.MaxFixedPeriod; k++ {
		preds = append(preds, bp.NewFixedK(k))
	}
	rs := sim.Simulate(tr, preds, sim.Options{ForceReference: true, Observer: obs.New()}).Results
	p := &PAClassification{
		Class:  make(map[trace.Addr]PAClass),
		Total:  tr.Len(),
		Static: rs[0],
		Loop:   rs[1],
		Block:  rs[2],
		IFPAs:  rs[3],
		Fixed:  make(map[trace.Addr]bp.BestFixed),
	}
	var sites []trace.SiteStats
	for _, site := range stats.SortedSites() {
		best := bp.BestFixed{Correct: -1}
		for k, r := range rs[4:] {
			if b := r.Branch(site.PC); b.Correct > best.Correct {
				best = bp.BestFixed{Correct: b.Correct, K: k + 1, Total: b.Total}
			}
		}
		p.Fixed[site.PC] = best
		sites = append(sites, *site)
	}
	p.assign(sites, cfg.HighBias)
	return p
}

// outcomeFn yields a site's j'th outcome.
type outcomeFn func(j int) bool

// randomBehavior draws one of the outcome shapes the differential traces
// mix:
// biased coins, short and long repeating patterns, for- and while-type
// loops (trip counts past MaxRun included, and while-type loops first
// seen on their taken exit, which flips the loop direction), and block
// patterns.
func randomBehavior(rng *rand.Rand) outcomeFn {
	switch rng.Intn(6) {
	case 0:
		bias := rng.Float64()
		r := rand.New(rand.NewSource(rng.Int63()))
		return func(int) bool { return r.Float64() < bias }
	case 1:
		period := 1 + rng.Intn(40)
		pat := make([]bool, period)
		for i := range pat {
			pat[i] = rng.Intn(2) == 0
		}
		return func(j int) bool { return pat[j%period] }
	case 2: // for-type loop
		trip := 1 + rng.Intn(2*bp.MaxRun)
		return func(j int) bool { return j%(trip+1) != trip }
	case 3: // while-type loop, first seen on its taken exit
		trip := 1 + rng.Intn(2*bp.MaxRun)
		return func(j int) bool { return j%(trip+1) == 0 }
	case 4: // block pattern
		n, m := 1+rng.Intn(300), 1+rng.Intn(300)
		return func(j int) bool { return j%(n+m) < n }
	default: // a loop whose trip count changes
		r := rand.New(rand.NewSource(rng.Int63()))
		trip, left := 1+r.Intn(20), 0
		return func(int) bool {
			if left == 0 {
				trip, left = 1+r.Intn(20), trip
				return false
			}
			left--
			return true
		}
	}
}

// randomClassTrace draws n records from sites branches with mixed
// behaviors and random backward bits; the site choice is skewed so
// stream lengths range from one record to thousands.
func randomClassTrace(seed int64, sites, n int) *trace.Trace {
	rng := rand.New(rand.NewSource(seed))
	fns := make([]outcomeFn, sites)
	back := make([]bool, sites)
	seen := make([]int, sites)
	for i := range fns {
		fns[i] = randomBehavior(rng)
		back[i] = rng.Intn(2) == 0
	}
	tr := trace.New(fmt.Sprintf("classify-rand-%d", seed), n)
	for j := 0; j < n; j++ {
		s := rng.Intn(1 + rng.Intn(sites))
		tr.Append(trace.Record{PC: trace.Addr(0x1000 + 4*s), Taken: fns[s](seen[s]), Backward: back[s] != (rng.Intn(8) == 0)})
		seen[s]++
	}
	return tr
}

// lengthClassTrace gives each branch an exact stream length: one
// outcome, fewer outcomes than most fixed periods, lengths either side
// of the 64-bit word boundaries, and one long coin-flip branch whose
// distinct histories at 28 bits outnumber the IF-PAs table's presize,
// so the table grows mid-branch. Branches interleave round-robin.
func lengthClassTrace(seed int64) *trace.Trace {
	rng := rand.New(rand.NewSource(seed))
	lengths := []int{1, 1, 2, 5, 31, 32, 33, 63, 64, 65, 127, 128, 129, 600, 50_000}
	fns := make([]outcomeFn, len(lengths))
	for i := range fns {
		fns[i] = randomBehavior(rng)
	}
	coin := rand.New(rand.NewSource(rng.Int63()))
	fns[len(fns)-1] = func(int) bool { return coin.Intn(2) == 0 }
	tr := trace.New("classify-lengths", 0)
	for j := 0; ; j++ {
		emitted := false
		for s, m := range lengths {
			if j < m {
				tr.Append(trace.Record{PC: trace.Addr(0x2000 + 4*s), Taken: fns[s](j), Backward: s%3 == 0})
				emitted = true
			}
		}
		if !emitted {
			return tr
		}
	}
}

// TestClassifyMatchesReference pins the per-branch pass to the
// whole-trace reference predictors: the classification, every
// per-branch Result and every best fixed period DeepEqual, on
// randomized traces with thousands of sites and on exact stream
// lengths, at IF-PAs history lengths 1, 16 and 28.
func TestClassifyMatchesReference(t *testing.T) {
	traces := []*trace.Trace{
		randomClassTrace(1, 3000, 40_000),
		randomClassTrace(2, 40, 30_000),
		lengthClassTrace(3),
	}
	for _, tr := range traces {
		for _, bits := range []uint{1, 16, 28} {
			t.Run(fmt.Sprintf("%s/bits=%d", tr.Name(), bits), func(t *testing.T) {
				cfg := ClassifyConfig{IFPAsHistoryBits: bits, Obs: obs.New()}
				got, want := ClassifyPerAddress(tr, cfg), referenceClassify(tr, cfg)
				if reflect.DeepEqual(got, want) {
					return
				}
				for _, pc := range tr.Packed().Addrs() {
					for _, pair := range [][2]*sim.Result{{got.Static, want.Static}, {got.Loop, want.Loop}, {got.Block, want.Block}, {got.IFPAs, want.IFPAs}} {
						if g, w := pair[0].Branch(pc), pair[1].Branch(pc); g != w {
							t.Errorf("%s 0x%x: got %+v, want %+v", pair[1].Predictor, pc, g, w)
						}
					}
					if g, w := got.Fixed[pc], want.Fixed[pc]; g != w {
						t.Errorf("fixed-k 0x%x: got %+v, want %+v", pc, g, w)
					}
					if g, w := got.Class[pc], want.Class[pc]; g != w {
						t.Errorf("class 0x%x: got %v, want %v", pc, g, w)
					}
				}
				t.Fatalf("classification differs from the reference (DynWeight %v vs %v)", got.DynWeight, want.DynWeight)
			})
		}
	}
}

// TestClassifyCounters pins the classification's observability: one
// core.classify span and deterministic record and branch counters, and
// no simulation counters.
func TestClassifyCounters(t *testing.T) {
	tr := randomClassTrace(4, 50, 2000)
	reg := obs.New()
	ClassifyPerAddress(tr, ClassifyConfig{Obs: reg})
	snap := reg.Snapshot()
	want := map[string]int64{
		"core.classify.records":  int64(tr.Len()),
		"core.classify.branches": int64(tr.Packed().NumBranches()),
	}
	if !reflect.DeepEqual(snap.Counters, want) {
		t.Errorf("counters = %v, want %v", snap.Counters, want)
	}
	if h, ok := snap.Histograms["core.classify.ns"]; !ok || h.Count != 1 {
		t.Errorf("core.classify span histogram = %+v, want one observation", snap.Histograms)
	}
}
