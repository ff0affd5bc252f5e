package core

import (
	"fmt"
	"math/bits"
	"slices"
	"sync"

	"branchcorr/internal/obs"
	"branchcorr/internal/trace"
)

// This file is the path-signature classification behind the oracle's
// profile and collection passes, whose state vectors the fused
// selective sweep replays. What the columnar emitter produces for
// record i depends only on the record's branch and the n (id, taken,
// backward) entries before it, n being the walk's largest window.
// Branch streams tend to reuse a small set of such (branch, path)
// contexts — the synthetic workloads heavily — so most records repeat a
// signature an earlier record already had: one pass maps each record to
// the first position with its signature (its class's representative),
// and the consumers walk once per class instead of once per record. The pass's result (PathClasses) is shared: one
// pass at the largest window serves every consumer of the trace.
//
// A signature is ids[i-n..i] plus the taken and backward bits of
// [i-n, i). It is hashed with a polynomial rolling hash over the packed
// columns, so classifying a record costs O(1); a hash match is only a
// candidate, confirmed by comparing the ID slices and the extracted bit
// words exactly against the representative. Records with i < n have a
// clipped window and are never classified (they take the per-record
// walk), and so is every record once the memo's class budget is spent
// or its hit rate is too low to pay for the hashing (the bypass).

// pathHashMask is the hash seam: every signature hash is ANDed with it.
// Tests set it to zero so that every lookup collides and only the exact
// comparison separates signatures.
var pathHashMask = ^uint64(0)

const (
	// pathRollBase is the rolling hash's polynomial base (odd, so
	// multiplication by it is invertible modulo 2^64).
	pathRollBase = 0x100000001B3
	// pathMix is the golden-ratio multiplier that spreads an entry's
	// packed (id, taken, backward) value and the final hash.
	pathMix = 0x9E3779B97F4A7C15

	// pathMemoEpoch is how many lookups the bypass rule sees between
	// decisions.
	pathMemoEpoch = 1 << 12
	// pathMemoMinHitShare is the bypass threshold: an epoch in which
	// fewer than 1/pathMemoMinHitShare of the lookups hit stops
	// insertion until an epoch's hit share recovers.
	pathMemoMinHitShare = 8
	// pathMemoMinClasses is the class budget of a range too short for
	// the per-record budget to admit any.
	pathMemoMinClasses = 64
)

// PathClasses is the records of a packed trace classified by path
// signature at window N: each classified record's class, and per class
// its representative (first) position, its record count and how many
// of its records resolved taken. A class of one record saves no walk,
// so its record is unclassified again (class -1, count 0) and walks on
// its own, like the first N records and every record the memo declined.
//
// One value serves every consumer that walks at a window no longer than
// N: positions with equal signatures at N have equal signatures at any
// smaller window. ClassifyPaths builds it, and the oracle (passed as its
// Source, or to OracleStates) and a SelectiveSweep over the oracle's
// states both read it; neither writes it but for the walk index the
// oracle builds once, under a sync.Once, so concurrent readers are
// safe. It is a pure function of the columns, held only as long as its
// holders hold it: nothing in the package caches it.
//
// Memory is bounded per record: the class column (4 bytes per record)
// plus at most one class per two records (pathMemoMinClasses for a
// shorter trace), each with its representative, count and taken count
// (12 bytes), so at most 10 bytes per record once classified. While the
// trace is classified, each class also holds its hash tag and
// at most 8/3 four-byte hash slots (the table doubles past 3/4 load),
// under 18 bytes per record in all; ClassifyPaths drops them on return.
// The oracle's walk index (walkIndex) adds 8 bytes per walk, and a
// sweep one byte per config per class.
type PathClasses struct {
	pt  *trace.Packed // the classified trace
	ids []int32       // its dense-ID column, which the positions index
	n   int           // signature window

	class  []int32 // per position: its class; -1 = per-record walk
	reps   []int32 // per class: representative (first) position
	counts []int32 // per class: records classified into it; 0 = unclassified again
	taken  []int32 // per class: records that resolved taken

	walksOnce sync.Once
	walkIdx   *walkIndex // built on first use by walks
}

var _ Source = (*PathClasses)(nil)

// ClassifyPaths classifies every record of src by its path signature at
// window n (one pass over the trace) and counts the pass into reg
// (nil selects obs.Default()): core.paths.classify.passes gains one and
// core.paths.classify.records the records classified. Hand the result to
// Oracle as its Source, or to OracleStates, whose states
// NewSelectiveSweepStates replays, to share one pass between them.
func ClassifyPaths(src Source, n int, reg *obs.Registry) *PathClasses {
	if n <= 0 {
		panic(fmt.Sprintf("core: path classification window %d must be positive", n))
	}
	pt := src.Packed()
	pc := &PathClasses{pt: pt}
	pc.classify(pt.IDs(), pt.TakenWords(), pt.BackwardWords(), n)
	reg = obs.Or(reg)
	reg.Counter("core.paths.classify.passes").Inc()
	reg.Counter("core.paths.classify.records").Add(int64(pt.Len()))
	return pc
}

// Packed implements Source: the classified trace.
func (pc *PathClasses) Packed() *trace.Packed { return pc.pt }

// walkIndex lists each dense ID's walks over a PathClasses — its
// declined records in position order, then its live classes in class
// order — so the oracle reaches one branch's walks without scanning the
// class column. A walk is named by its rank: a declined record's among
// all declined records in position order, a class's among all live
// classes in class order. Those are the orders BeamStates stores
// vectors in. It costs 8 bytes per walk plus 8 per dense ID.
type walkIndex struct {
	recPos []int32 // per record rank: the declined record's position
	recs   []int32 // record ranks grouped by dense ID, ascending
	recAt  []int32 // per dense ID + 1: its record ranks are recs[recAt[id]:recAt[id+1]]
	clsOf  []int32 // per class rank: the live class
	cls    []int32 // class ranks grouped by dense ID, ascending
	clsAt  []int32 // per dense ID + 1: its class ranks are cls[clsAt[id]:clsAt[id+1]]

	allOnce sync.Once
	all     []int32 // every position grouped by dense ID, ascending; built on first use by positions
	allAt   []int32
}

// walks returns pc's walk index, building it on first use; concurrent
// callers share one build.
func (pc *PathClasses) walks() *walkIndex {
	pc.walksOnce.Do(func() {
		nb := pc.pt.NumBranches()
		x := &walkIndex{recAt: make([]int32, nb+1), clsAt: make([]int32, nb+1)}
		for k, c := range pc.class {
			if c < 0 {
				x.recAt[pc.ids[k]+1]++
			}
		}
		for c, n := range pc.counts {
			if n > 0 {
				x.clsAt[pc.ids[pc.reps[c]]+1]++
			}
		}
		x.recPos = make([]int32, 0, sum(x.recAt))
		x.clsOf = make([]int32, 0, sum(x.clsAt))
		for k, c := range pc.class {
			if c < 0 {
				x.recPos = append(x.recPos, int32(k))
			}
		}
		for c, n := range pc.counts {
			if n > 0 {
				x.clsOf = append(x.clsOf, int32(c))
			}
		}
		x.recs = groupRanks(x.recAt, len(x.recPos), func(r int) int32 { return pc.ids[x.recPos[r]] })
		x.cls = groupRanks(x.clsAt, len(x.clsOf), func(r int) int32 { return pc.ids[pc.reps[x.clsOf[r]]] })
		pc.walkIdx = x
	})
	return pc.walkIdx
}

// sum is the sum of counts.
func sum(counts []int32) int {
	n := 0
	for _, c := range counts {
		n += int(c)
	}
	return n
}

// groupRanks turns at, holding each dense ID's count at at[id+1], into
// group offsets, and returns the ranks 0..n-1 grouped by idOf(rank),
// ascending within each group.
func groupRanks(at []int32, n int, idOf func(r int) int32) []int32 {
	for id := 1; id < len(at); id++ {
		at[id] += at[id-1]
	}
	next := slices.Clone(at[:len(at)-1])
	out := make([]int32, n)
	for r := 0; r < n; r++ {
		id := idOf(r)
		out[next[id]] = int32(r)
		next[id]++
	}
	return out
}

// numWalks is dense ID id's walk count.
func (x *walkIndex) numWalks(id int) int {
	return int(x.recAt[id+1] - x.recAt[id] + x.clsAt[id+1] - x.clsAt[id])
}

// positions returns every position of dense ID id, ascending: the
// per-record walk a pruned candidate table is rebuilt by. The grouping
// is built on first use and shared.
func (x *walkIndex) positions(pc *PathClasses, id int) []int32 {
	x.allOnce.Do(func() {
		x.allAt = make([]int32, len(x.recAt))
		for _, b := range pc.ids {
			x.allAt[b+1]++
		}
		x.all = groupRanks(x.allAt, len(pc.ids), func(r int) int32 { return pc.ids[r] })
	})
	return x.all[x.allAt[id]:x.allAt[id+1]]
}

// classify is the one classification pass: it classifies every
// position of the columns by signature at window n, then unclassifies
// one-record classes and counts each class's taken records.
func (pc *PathClasses) classify(ids []int32, taken, back []uint64, n int) {
	var m pathMemo
	m.reset(ids, taken, back, n)
	class := make([]int32, len(ids))
	for i := range class {
		class[i] = m.classify(i)
	}
	counts := m.counts
	ctaken := make([]int32, len(counts))
	for i, c := range class {
		if c < 0 {
			continue
		}
		if counts[c] == 1 {
			class[i] = -1
			counts[c] = 0
			continue
		}
		ctaken[c] += int32(taken[i>>6] >> (uint(i) & 63) & 1)
	}
	pc.ids, pc.n = ids, n
	pc.class, pc.reps, pc.counts, pc.taken = class, m.reps, counts, ctaken
}

// pathMemo is the classification pass's hash table over the signatures
// of a column triple; PathClasses.classify drives it. Representatives
// are positions in the columns the memo was reset over.
type pathMemo struct {
	n           int // signature window
	ids         []int32
	taken, back []uint64

	slots  []int32  // class index, -1 = empty; power-of-two sized, open addressing
	shift  uint     // 64 - log2(len(slots))
	tags   []uint32 // per class: the signature hash's top 32 bits
	reps   []int32  // per class: representative (first) position
	counts []int32  // per class: records classified into it
	limit  int      // class budget for the range

	roll      uint64 // polynomial hash of the n entries before the next position
	powN      uint64 // pathRollBase^n, to retire the oldest entry
	inserting bool   // bypass state: new signatures become classes

	epochLookups, epochHits int

	// prevRep is the representative of the class the previous position
	// joined (itself, for a new class), or -1 when it was not classified.
	prevRep int
}

// pathEntry packs column position p's (id, taken, backward) triple into
// one rolling-hash term.
func pathEntry(ids []int32, taken, back []uint64, p int) uint64 {
	v := uint64(uint32(ids[p]))<<2 | (taken[p>>6]>>(uint(p)&63)&1)<<1 | back[p>>6]>>(uint(p)&63)&1
	return (v + 1) * pathMix
}

// reset points a zero memo at a column triple and prepares it to
// classify every position, from 0 in order, as signatures over window
// n.
func (m *pathMemo) reset(ids []int32, taken, back []uint64, n int) {
	m.n, m.ids, m.taken, m.back = n, ids, taken, back
	m.limit = max(len(ids)/2, pathMemoMinClasses)
	m.inserting = true
	m.epochLookups, m.epochHits = 0, 0
	m.prevRep = -1
	m.powN = 1
	for k := 0; k < n; k++ {
		m.powN *= pathRollBase
	}
	m.roll = 0
	if n < len(ids) {
		for p := 0; p < n; p++ {
			m.roll = m.roll*pathRollBase + pathEntry(ids, taken, back, p)
		}
	}
	m.resize(64)
}

// resize re-buckets every class into a cleared slot array of the given
// power-of-two size.
func (m *pathMemo) resize(size int) {
	slots := make([]int32, size)
	for k := range slots {
		slots[k] = -1
	}
	m.slots = slots
	m.shift = uint(64 - bits.TrailingZeros(uint(size)))
	mask := uint64(size - 1)
	for c, tag := range m.tags {
		k := (uint64(tag) * pathMix) >> m.shift
		for slots[k] >= 0 {
			k = (k + 1) & mask
		}
		slots[k] = int32(c)
	}
}

// bitsEqual reports whether the k bits of ws starting at positions a and
// b agree.
func bitsEqual(ws []uint64, a, b, k int) bool {
	for off := 0; off < k; off += 64 {
		w := min(64, k-off)
		if bitsAt(ws, a+off, w) != bitsAt(ws, b+off, w) {
			return false
		}
	}
	return true
}

// bitsAt extracts the w <= 64 bits of ws starting at position p.
func bitsAt(ws []uint64, p, w int) uint64 {
	s := uint(p) & 63
	v := ws[p>>6] >> s
	if int(s)+w > 64 {
		v |= ws[p>>6+1] << (64 - s)
	}
	if w < 64 {
		v &= uint64(1)<<uint(w) - 1
	}
	return v
}

// same is the exact signature comparison of positions i and r.
func (m *pathMemo) same(i, r int) bool {
	n := m.n
	a, b := m.ids[i-n:i+1], m.ids[r-n:r+1]
	for k, id := range a {
		if b[k] != id {
			return false
		}
	}
	return bitsEqual(m.taken, i-n, r-n, n) && bitsEqual(m.back, i-n, r-n, n)
}

// chained is same(i, r) for a representative r whose predecessor r-1
// has position i-1's signature: the signatures of i and r then share
// everything but ids[i] against ids[r] and the taken and backward bits
// of i-1 against r-1.
func (m *pathMemo) chained(i, r int) bool {
	return m.ids[i] == m.ids[r] &&
		bitsAt(m.taken, i-1, 1) == bitsAt(m.taken, r-1, 1) &&
		bitsAt(m.back, i-1, 1) == bitsAt(m.back, r-1, 1)
}

// classify returns position i's class, or -1 when the record must take
// the per-record walk. Positions must be classified in order from 0. A
// candidate whose representative follows the previous position's is
// compared by chained, not same: runs of records that repeat an earlier
// run pay one full comparison, at the run's start.
//
//bplint:hot
func (m *pathMemo) classify(i int) int32 {
	n := m.n
	prev := m.prevRep
	m.prevRep = -1
	if i < n {
		return -1
	}
	h := ((m.roll ^ uint64(uint32(m.ids[i]))*pathRollBase) * pathMix) & pathHashMask
	m.roll = m.roll*pathRollBase + pathEntry(m.ids, m.taken, m.back, i) - m.powN*pathEntry(m.ids, m.taken, m.back, i-n)

	m.epochLookups++
	if m.epochLookups == pathMemoEpoch {
		m.inserting = m.epochHits*pathMemoMinHitShare >= pathMemoEpoch
		m.epochLookups, m.epochHits = 0, 0
	}
	tag := uint32(h >> 32)
	slots, tags, reps, counts := m.slots, m.tags, m.reps, m.counts
	mask := uint64(len(slots) - 1)
	k := (uint64(tag) * pathMix) >> m.shift
	for {
		c := slots[k]
		if c < 0 {
			break
		}
		// Representatives are at least n >= 1, so prev = -1 never chains.
		if r := int(reps[c]); tags[c] == tag && (r == prev+1 && m.chained(i, r) || r != prev+1 && m.same(i, r)) {
			m.epochHits++
			counts[c]++
			m.prevRep = r
			return c
		}
		k = (k + 1) & mask
	}
	if !m.inserting || len(m.reps) >= m.limit {
		return -1
	}
	c := int32(len(m.reps))
	m.tags, m.reps, m.counts = extend(m.tags, 1), extend(m.reps, 1), extend(m.counts, 1)
	m.tags[c], m.reps[c], m.counts[c] = tag, int32(i), 1
	m.prevRep = i
	slots[k] = c
	if 4*len(m.reps) > 3*len(slots) {
		m.resize(2 * len(slots))
	}
	return c
}

// extend returns s lengthened by n elements (one class's worth),
// doubling a full slice's capacity: append's own growth settles at 1.25×
// for large slices, which would allocate about five times the final
// per-class arrays.
func extend[E any](s []E, n int) []E {
	if len(s)+n > cap(s) {
		s = slices.Grow(s, max(cap(s), pathMemoMinClasses*n))
	}
	return s[:len(s)+n]
}
