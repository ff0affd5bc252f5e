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
// shared multi-window walk, with the signature classes.
func TestCollectStreamAllocs(t *testing.T) {
	tr := randomTrace(7, 30_000, 48)
	pt := tr.Packed()
	for _, windows := range [][]int{{8}, {8, 12, 16, 20, 24, 28, 32}} {
		cfg := OracleConfig{}.WithDefaults()
		pc := ClassifyPaths(pt, windows[len(windows)-1], obs.New())
		cands := profileWindows(pt, pc, windows, cfg)
		pcs := sortedPCs(cands)
		matchers, matcherOf := buildMatchers(pcs, cands, pt.Addrs())
		em := newPackedEmitter(pt, windows)
		var st memoStats
		collectTrace(em, matchers, pc, &st) // warm the emitter and the histograms
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
			collectTrace(em, matchers, pc, &st)
		})
		if allocs != 0 {
			t.Errorf("windows %v: collectTrace allocates %.1f per full replay, want 0", windows, allocs)
		}
	}
}
