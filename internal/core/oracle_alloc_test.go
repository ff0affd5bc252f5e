// Runtime allocation gate for the oracle's columnar hot path,
// cross-checking the bplint kernel-purity analysis of the
// //bplint:hot-annotated stream functions. The per-record machinery —
// window emission and beam-state collection — must be allocation-free
// once its epoch scratch and key buffer exist; only the amortized miss
// paths (candidate-table growth, watermark prunes) and the once-per-
// branch scoring setup may allocate, and those carry justified
// //bplint:ignore directives in oracle_kernel.go.
package core

import "testing"

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
// state: with every branch's instance planes preallocated to its
// dynamic count (as newBeamMatcher sizes them), replaying the stream
// over reset planes allocates nothing per record — for one window and
// for the shared multi-window walk.
func TestCollectStreamAllocs(t *testing.T) {
	tr := randomTrace(7, 30_000, 48)
	pt := tr.Packed()
	for _, windows := range [][]int{{8}, {8, 12, 16, 20, 24, 28, 32}} {
		cfg := OracleConfig{}.withDefaults()
		cands := profileWindows(pt, windows, cfg)
		pcs := sortedPCs(cands)
		matchers, matcherOf := buildMatchers(pcs, cands, pt.NumBranches(), pt.IDOf)
		em := newPackedEmitter(pt, windows)
		collectRange(em, matchers, 0, pt.Len()) // warm the emitter scratch
		allocs := testing.AllocsPerRun(3, func() {
			for _, bm := range matcherOf {
				for _, m := range bm.mats {
					clear(m)
				}
				clear(bm.outs)
				bm.n = 0
			}
			collectRange(em, matchers, 0, pt.Len())
		})
		if allocs != 0 {
			t.Errorf("windows %v: collectRange allocates %.1f per full replay, want 0", windows, allocs)
		}
	}
}
