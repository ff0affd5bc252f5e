// Runtime allocation gate for the oracle's columnar hot path,
// cross-checking the bplint kernel-purity analysis of the
// //bplint:hot-annotated stream functions. The per-walk machinery —
// window emission and beam-state resolution — must be allocation-free
// once its epoch scratch and buffers exist; only the amortized miss
// paths (candidate-table, kept-entry and histogram growth, watermark
// prunes) and the once-per-branch ranking and scoring may allocate, and
// those carry justified
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

// builtJob is OracleStates' job over pt at windows, every window built
// and scored, keeping the state vectors: the report's oracle step.
func builtJob(pt Source, windows []int, par int) *oracleJob {
	n := len(windows)
	job := &oracleJob{pc: ClassifyPaths(pt, windows[n-1], obs.New()), cfg: OracleConfig{ScoreParallel: par, Obs: obs.New()}.WithDefaults(),
		windows: windows, built: make([]bool, n), scored: make([]bool, n), keep: true}
	for w := range windows {
		job.built[w], job.scored[w] = true, true
	}
	return job
}

// TestCollectStreamAllocs pins the resolve step's steady state: once a
// branch's histograms hold its vectors, resolving its walks again —
// from the kept entries, and by walking again against its beam keys —
// allocates nothing, for one window and for the shared multi-window
// walk, with the signature classes, and storing every walk's state
// vectors in BeamStates sized up front.
func TestCollectStreamAllocs(t *testing.T) {
	pt := randomTrace(7, 30_000, 48).Packed()
	for _, windows := range [][]int{{8}, {8, 12, 16, 20, 24, 28, 32}} {
		pl := builtJob(pt, windows, 1).plan()
		var ids []int
		for id := range pl.has {
			ids = append(ids, id)
		}
		w := newBranchWorker(pl, ids)
		for id, has := range pl.has {
			if !has {
				continue
			}
			beams := make([][]Ref, pl.nw)
			w.rank(id, w.profile(id, true), beams)
			if w.kept.walks() != pl.x.numWalks(id) {
				t.Fatalf("windows %v: branch %d kept %d of its %d walks", windows, id, w.kept.walks(), pl.x.numWalks(id))
			}
			w.resolve(id, beams) // warm the histograms
			if allocs := testing.AllocsPerRun(3, func() { w.resolve(id, beams) }); allocs != 0 {
				t.Errorf("windows %v branch %d: resolving the kept entries allocates %.1f per replay, want 0", windows, id, allocs)
			}
			w.kept.release()
			w.resolve(id, beams) // warm the walk buffers
			if allocs := testing.AllocsPerRun(3, func() { w.resolve(id, beams) }); allocs != 0 {
				t.Errorf("windows %v branch %d: resolving by walking allocates %.1f per replay, want 0", windows, id, allocs)
			}
			w.score(id, beams)
			w.kept.release()
		}
	}
}

// TestCollectShardsAllocs bounds the sharded pass's allocations. Per
// call it allocates each shard's worker, the worker pool's cells and
// goroutines, and each branch's beams and selections: 1607 on the 10k
// trace's 48 branches (1635 under the race detector), pinned within 43,
// less than one more allocation per branch. Nothing is allocated per
// record or per walk. A worker's candidate table, key index, histograms
// and kept entries grow by doubling until they fit its largest branch,
// so a trace four times longer adds their few extra doublings: 109
// more per call (about 44 histogram, 59 key-index and 6 table or entry
// doublings), pinned within 128.
func TestCollectShardsAllocs(t *testing.T) {
	const perCall, growth = 1650, 128
	windows := []int{8, 12, 16, 20, 24, 28, 32}
	per := map[int]float64{}
	for _, n := range []int{10_000, 40_000} {
		job := builtJob(randomTrace(7, n, 48).Packed(), windows, 2)
		if sh := planShards(job.pc, 2, nil); sh.n != 2 {
			t.Fatalf("%d records: %d shards, want 2", n, sh.n)
		}
		job.run()
		per[n] = testing.AllocsPerRun(3, func() { job.run() })
	}
	if per[10_000] > perCall {
		t.Errorf("the pass allocates %.1f per call on 10k records, want at most %d", per[10_000], perCall)
	}
	if per[40_000] > per[10_000]+growth {
		t.Errorf("the pass allocates %.1f per call on 40k records, %.1f on 10k: more than %d more, so it grows with the records", per[40_000], per[10_000], growth)
	}
}
