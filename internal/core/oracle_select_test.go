package core

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"branchcorr/internal/trace"
)

// The oracle's selection stage: the bounded beam ranking must equal
// rankCandidates, its executable spec, and a focused emit with its O(1)
// key resolution must equal the unfocused emission filtered to the
// focused set.

// randomScoredRefs draws n distinct refs over the PCs of addrs, with
// scores, presences and tags from small ranges so that ties are common
// in every key of both orders. tags bounds the tag range (at most
// MaxTag+1).
func randomScoredRefs(rng *rand.Rand, addrs []trace.Addr, n, tags int) []scoredRef {
	seen := map[Ref]bool{}
	out := make([]scoredRef, 0, n)
	for len(out) < n {
		r := Ref{PC: addrs[rng.Intn(len(addrs))], Scheme: Scheme(rng.Intn(2)), Tag: uint8(rng.Intn(tags))}
		if seen[r] {
			continue
		}
		seen[r] = true
		out = append(out, scoredRef{ref: r, score: uint32(rng.Intn(3)), presence: uint32(1 + rng.Intn(3))})
	}
	return out
}

// TestBeamRankerMatchesRankCandidates compares the kernel's bounded
// ranking with rankCandidates on random candidate sets with heavy ties
// in score, presence and tag, for k in {1, 2, 3, 16, 32} and set sizes
// of zero, below k, exactly k and far above k. One ranker per k is
// reused across every set through reset, as a shard's worker reuses
// it across branches, and its dense IDs are assigned in shuffled address
// order, so the ref tie-break must decode through the ID table.
func TestBeamRankerMatchesRankCandidates(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	const numPCs = 40
	addrs := make([]trace.Addr, numPCs)
	for i := range addrs {
		addrs[i] = trace.Addr(0x4000 + 4*i)
	}
	rng.Shuffle(len(addrs), func(i, j int) { addrs[i], addrs[j] = addrs[j], addrs[i] })
	idOf := map[trace.Addr]int32{}
	for id, a := range addrs {
		idOf[a] = int32(id)
	}
	for _, k := range []int{1, 2, 3, 16, 32} {
		r := newBeamRanker(addrs, k)
		for trial := 0; trial < 300; trial++ {
			var n int
			switch trial % 4 {
			case 0:
				n = 0
			case 1:
				n = rng.Intn(k) // below k
			case 2:
				n = k
			default:
				n = 8*k + rng.Intn(8*k) // far above k
			}
			tags := []int{2, 4, MaxTag + 1}[trial%3]
			pool := addrs
			if trial%5 == 0 {
				pool = addrs[:1+rng.Intn(3)] // few PCs: ties reach the tag and the scheme
			}
			n = min(n, len(pool)*2*tags)
			all := randomScoredRefs(rng, pool, n, tags)
			total := rng.Intn(1000)

			r.reset()
			for _, e := range all {
				key, ok := refKeyOf(idOf[e.ref.PC], e.ref)
				if !ok {
					t.Fatalf("ref %v has no key", e.ref)
				}
				r.add(rankEntry{key: key, score: e.score, presence: e.presence})
			}
			got := r.candidates(total)
			want := rankCandidates(slices.Clone(all), total, k)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("k=%d trial %d (%d candidates, tags<%d):\n kernel    %+v\n reference %+v",
					k, trial, n, tags, got, want)
			}
		}
	}
}

// selectTestTraces are emitter inputs that reach every tag limit: a
// random trace with loop branches, and a tight loop whose backward
// branch takes almost every record, so at the widest window occurrence
// tags run past MaxTag and both counters saturate at 255.
func selectTestTraces() []*trace.Trace {
	loop := trace.New("tight-loop", 0)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 2500; i++ {
		if rng.Intn(10) < 9 {
			loop.Append(trace.Record{PC: 0x2000, Taken: rng.Intn(50) != 0, Backward: true})
		} else {
			loop.Append(trace.Record{PC: trace.Addr(0x2004 + 4*rng.Intn(5)), Taken: rng.Intn(2) == 0})
		}
	}
	return []*trace.Trace{randomTrace(11, 2500, 12), loop}
}

// randomKeySet draws a sorted set of distinct packed keys over up to
// four of nb dense IDs, with tags biased to both ends of [0, MaxTag];
// every few sets one ID holds all 64 (scheme, tag) keys, the full
// bitmap.
func randomKeySet(rng *rand.Rand, nb int) refKeySet {
	var keys []uint64
	for g := rng.Intn(5); g > 0; g-- {
		rid := int32(rng.Intn(nb))
		if rng.Intn(6) == 0 {
			for low := uint64(0); low <= refKeyLow; low++ {
				keys = append(keys, uint64(rid)<<refKeyIDShift|low)
			}
			continue
		}
		for m := 1 + rng.Intn(6); m > 0; m-- {
			tag := uint8([]int{0, 1, MaxTag - 1, MaxTag, rng.Intn(MaxTag + 1)}[rng.Intn(5)])
			if rng.Intn(2) == 0 {
				keys = append(keys, refKeyOcc(rid, tag))
			} else {
				keys = append(keys, refKeyBack(rid, tag))
			}
		}
	}
	slices.Sort(keys)
	var s refKeySet
	s.reset(slices.Compact(keys))
	return s
}

// TestFocusedEmitMatchesFilteredEmit checks the focused emitter against
// the unfocused one on the same walk: at every trace position, under a
// random set refocused every few positions, a focused emit must produce
// exactly the unfocused emission filtered to the set's keys, with every
// window's end at the filtered prefix, and find must return each key's
// index in the set. Windows reach past the tag and counter limits
// (400 entries), and the emitter is reused from set to set, so a bitmap
// left behind by the previous set shows.
func TestFocusedEmitMatchesFilteredEmit(t *testing.T) {
	windows := []int{1, 7, 32, 33, 400}
	rng := rand.New(rand.NewSource(29))
	for _, tr := range selectTestTraces() {
		t.Run(tr.Name(), func(t *testing.T) {
			pt := tr.Packed()
			em := newPackedEmitter(pt, windows)
			var set refKeySet
			index := map[uint64]int{}
			for i := 0; i < tr.Len(); i++ {
				if i%5 == 0 {
					set = randomKeySet(rng, pt.NumBranches())
					clear(index)
					for ki, key := range set.keys {
						index[key] = ki
					}
				}
				em.emit(i, false)
				var want []uint64
				wantEnds := make([]int, len(windows))
				start := 0
				for w, end := range em.ends {
					for _, key := range em.keys[start:end] {
						if _, ok := index[key&^refKeyTakenBit]; ok {
							want = append(want, key)
						}
					}
					wantEnds[w] = len(want)
					start = end
				}

				em.focus(&set)
				em.emit(i, true)
				if !slices.Equal(em.keys, want) || !slices.Equal(em.ends, wantEnds) {
					t.Fatalf("position %d, set %x:\n focused  %x ends %v\n filtered %x ends %v",
						i, set.keys, em.keys, em.ends, want, wantEnds)
				}
				for _, key := range em.keys {
					if got := em.find(key &^ refKeyTakenBit); got != index[key&^refKeyTakenBit] {
						t.Fatalf("position %d: find(%x) = %d, want %d", i, key&^refKeyTakenBit, got, index[key&^refKeyTakenBit])
					}
				}
				for ki, key := range set.keys {
					if got := em.find(key); got != ki {
						t.Fatalf("position %d: find(%x) = %d, want %d (set %x)", i, key, got, ki, set.keys)
					}
				}
			}
		})
	}
}

// TestFocusedEmitTagLimits pins the tight loop to its purpose: at the
// widest window it emits occurrence and backward tags at MaxTag, and
// its loop branch's occurrence count and the backward count both
// saturate at 255, so the property test covers every limit.
func TestFocusedEmitTagLimits(t *testing.T) {
	tr := selectTestTraces()[1]
	const window = 400
	pt := tr.Packed()
	em := newPackedEmitter(pt, []int{window})
	loop, _ := pt.IDOf(0x2000)
	var occMax, backMax, occSat, backSat bool
	backs := 0 // taken backward records in the window
	for i := 0; i < pt.Len(); i++ {
		r := pt.Record(i)
		em.emit(i, false)
		for _, key := range em.keys {
			if key&refKeyTagMask == MaxTag {
				backMax = backMax || key&refKeySchemeBit != 0
				occMax = occMax || key&refKeySchemeBit == 0
			}
		}
		occSat = occSat || em.scratch[loop].occCnt == 255
		backSat = backSat || backs > 255
		if r.Backward && r.Taken {
			backs++
		}
		if i >= window {
			if old := pt.Record(i - window); old.Backward && old.Taken {
				backs--
			}
		}
	}
	if !occMax || !backMax || !occSat || !backSat {
		t.Fatalf("MaxTag emitted: occurrence %v, backward %v; saturated: occurrence %v, backward %v; want all",
			occMax, backMax, occSat, backSat)
	}
}
