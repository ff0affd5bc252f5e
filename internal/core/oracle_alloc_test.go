// Runtime allocation gate for the oracle's columnar hot path,
// cross-checking the bplint kernel-purity analysis of the
// //bplint:hot-annotated stream functions. The per-record machinery —
// window emission and beam-state collection — must be allocation-free
// once its epoch scratch and key buffer exist; only the amortized miss
// paths (candidate-table and histogram growth, watermark prunes) and the
// once-per-branch scoring setup may allocate, and those carry justified
// //bplint:ignore directives in oracle_kernel.go.
package core

import (
	"testing"

	"branchcorr/internal/obs"
)

// TestOracleEmitterAllocs pins oracleEmitter.emit at zero allocations:
// the key buffer is preallocated to the 2-refs-per-entry worst case, so
// no window position may grow it.
func TestOracleEmitterAllocs(t *testing.T) {
	tr := randomTrace(7, 30_000, 48)
	pt := tr.Packed()
	for _, windowLen := range []int{4, 16, 32} {
		em := newPackedEmitter(pt, []int{windowLen})
		for i := 0; i < tr.Len(); i++ {
			em.emit(i, false)
		}
		allocs := testing.AllocsPerRun(200, func() { em.emit(tr.Len()/2, false) })
		if allocs != 0 {
			t.Errorf("window %d: emit allocates %.1f per call, want 0", windowLen, allocs)
		}
	}
}

// TestCollectStreamAllocs pins the pass-2/3 collection loop's steady
// state: once every branch's state histograms hold their vectors,
// replaying the stream over emptied histograms (same slot arrays, same
// capacity) allocates nothing per record — for one window and for the
// shared multi-window walk, with the signature classes, and keeping
// every walk's state vectors in BeamStates sized up front.
func TestCollectStreamAllocs(t *testing.T) {
	tr := randomTrace(7, 30_000, 48)
	pt := tr.Packed()
	for _, windows := range [][]int{{8}, {8, 12, 16, 20, 24, 28, 32}} {
		cfg := OracleConfig{}.WithDefaults()
		pc := ClassifyPaths(pt, windows[len(windows)-1], obs.New())
		cands := profileWindows(pt, pc, windows, cfg)
		pcs := sortedPCs(cands)
		matchers, matcherOf := buildMatchers(pcs, cands, pt, nil)
		em := newPackedEmitter(pt, windows)
		var st memoStats
		states := newBeamStates(pc, windows, matchers)
		collectTrace(em, matchers, pc, shard{}, &st, states) // warm the emitter and the histograms
		allocs := testing.AllocsPerRun(3, func() {
			for _, bm := range matcherOf {
				for w := range bm.hists {
					h := &bm.hists[w]
					for s := range h.slots {
						h.slots[s] = -1
					}
					h.keys, h.cnts = h.keys[:0], h.cnts[:0]
				}
			}
			collectTrace(em, matchers, pc, shard{}, &st, states)
		})
		if allocs != 0 {
			t.Errorf("windows %v: collectTrace allocates %.1f per full replay, want 0", windows, allocs)
		}
	}
}

// TestCollectShardsAllocs bounds the sharded collection's per-call
// allocations: each shard's emitter and the worker pool's cells and
// goroutines are allocated per call, but nothing per record, so a
// replay over emptied histograms allocates the same small amount on a
// trace four times longer.
func TestCollectShardsAllocs(t *testing.T) {
	windows := []int{8, 12, 16, 20, 24, 28, 32}
	per := map[int]float64{}
	for _, n := range []int{10_000, 40_000} {
		pt := randomTrace(7, n, 48).Packed()
		cfg := OracleConfig{}.WithDefaults()
		reg := obs.New()
		pc := ClassifyPaths(pt, windows[len(windows)-1], reg)
		cands := profileWindows(pt, pc, windows, cfg)
		matchers, matcherOf := buildMatchers(sortedPCs(cands), cands, pt, nil)
		sh := planShards(pc, 2, matchers)
		if sh.n != 2 {
			t.Fatalf("%d records: %d shards, want 2", n, sh.n)
		}
		states := newBeamStates(pc, windows, matchers)
		collectShards(pt, pc, windows, matchers, sh, states, reg) // warm the histograms
		per[n] = testing.AllocsPerRun(3, func() {
			for _, bm := range matcherOf {
				for w := range bm.hists {
					h := &bm.hists[w]
					for s := range h.slots {
						h.slots[s] = -1
					}
					h.keys, h.cnts = h.keys[:0], h.cnts[:0]
				}
			}
			collectShards(pt, pc, windows, matchers, sh, states, reg)
		})
	}
	// Two shards: two emitters of six allocations each, the pool's cells,
	// closures and context, the per-shard counts.
	const bound = 32
	for n, allocs := range per {
		if allocs > bound {
			t.Errorf("%d records: collectShards allocates %.1f per call, want at most %d", n, allocs, bound)
		}
	}
	if per[40_000] > per[10_000] {
		t.Errorf("collectShards allocates %.1f per call on 40k records, %.1f on 10k: it must not grow with the records", per[40_000], per[10_000])
	}
}
