package core

import (
	"fmt"
	"math/bits"
	"slices"

	"branchcorr/internal/obs"
	"branchcorr/internal/trace"
)

// This file is the path-signature classification behind the oracle's
// profile and collection passes and the fused selective sweep. What the
// columnar emitter produces for record i depends only on the record's
// branch and the n (id, taken, backward) entries before it, n being the
// walk's largest window. Branch streams tend to reuse a small set of
// such (branch, path) contexts — the synthetic workloads heavily — so
// most records repeat a signature an earlier record already had: one
// pass maps each record to the first position with its signature (its
// class's representative), and the consumers walk once per class instead
// of once per record. The pass's result (PathClasses) is shared: one
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

// PathClasses is the records of one column range classified by path
// signature at window N: each classified record's class, and per class
// its representative (first) position, its record count and how many
// of its records resolved taken. A class of one record saves no walk,
// so its record is unclassified again (class -1, count 0) and walks on
// its own, like the first N records and every record the memo declined.
//
// One value serves every consumer that walks at a window no longer than
// N: positions with equal signatures at N have equal signatures at any
// smaller window. ClassifyPaths builds it for a whole packed trace, and
// the oracle (passed as its Source) and a SelectiveSweep built over it
// both read it; neither writes it, so concurrent readers are safe. It is
// a pure function of the columns, held only as long as its holders hold
// it: nothing in the package caches it.
//
// Memory is bounded per record of the range: the class column (4 bytes
// per record) plus at most one class per two records (pathMemoMinClasses
// for a shorter range), each with its representative, count and taken
// count (12 bytes), so at most 10 bytes per record once classified.
// While the range is classified, each class also holds its hash tag and
// at most 8/3 four-byte hash slots (the table doubles past 3/4 load),
// under 18 bytes per record in all; ClassifyPaths drops them on return.
// A sweep adds one byte per config per class.
type PathClasses struct {
	pt    *trace.Packed // the classified trace; nil for a kernel block's range
	ids   []int32       // the dense-ID column the positions index
	n, lo int           // signature window and first position of the range

	class  []int32 // class of position lo+k at k; -1 = per-record walk
	reps   []int32 // per class: representative (first) position
	counts []int32 // per class: records classified into it; 0 = unclassified again
	taken  []int32 // per class: records that resolved taken
}

var _ Source = (*PathClasses)(nil)

// ClassifyPaths classifies every record of src by its path signature at
// window n (one pass over the trace) and counts the pass into reg
// (nil selects obs.Default()): core.paths.classify.passes gains one and
// core.paths.classify.records the records classified. Hand the result to
// OracleWindows or Oracle as their Source, and to NewSelectiveSweepOver,
// to share one pass between them.
func ClassifyPaths(src Source, n int, reg *obs.Registry) *PathClasses {
	if n <= 0 {
		panic(fmt.Sprintf("core: path classification window %d must be positive", n))
	}
	pt := src.Packed()
	pc := &PathClasses{pt: pt}
	pc.classify(&pathMemo{}, pt.IDs(), pt.TakenWords(), pt.BackwardWords(), n, 0, pt.Len())
	reg = obs.Or(reg)
	reg.Counter("core.paths.classify.passes").Inc()
	reg.Counter("core.paths.classify.records").Add(int64(pt.Len()))
	return pc
}

// Packed implements Source: the classified trace.
func (pc *PathClasses) Packed() *trace.Packed { return pc.pt }

// classify is the one classification pass: it classifies positions
// [lo, hi) of the columns by signature at window n through m, reusing
// pc's and m's buffers, then unclassifies one-record classes and counts
// each class's taken records.
func (pc *PathClasses) classify(m *pathMemo, ids []int32, taken, back []uint64, n, lo, hi int) {
	m.reset(ids, taken, back, n, lo, hi)
	class := resize(pc.class, hi-lo)
	for k := range class {
		class[k] = m.classify(lo + k)
	}
	counts := m.counts
	ctaken := resize(pc.taken, len(counts))
	clear(ctaken)
	for k, c := range class {
		if c < 0 {
			continue
		}
		if counts[c] == 1 {
			class[k] = -1
			counts[c] = 0
			continue
		}
		p := lo + k
		ctaken[c] += int32(taken[p>>6] >> (uint(p) & 63) & 1)
	}
	pc.ids, pc.n, pc.lo = ids, n, lo
	pc.class, pc.reps, pc.counts, pc.taken = class, m.reps, counts, ctaken
}

// resize returns s with length n, reusing its capacity when it suffices.
func resize[E any](s []E, n int) []E {
	if cap(s) < n {
		return make([]E, n)
	}
	return s[:n]
}

// pathMemo is the classification pass's hash table over the signatures
// of one column range; PathClasses.classify drives it. Representatives
// are positions in the columns the memo was reset over. Its buffers are
// reused across resets, so a sweep that classifies each block it is
// handed allocates only when a block needs more than any earlier one.
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
}

// pathEntry packs column position p's (id, taken, backward) triple into
// one rolling-hash term.
func pathEntry(ids []int32, taken, back []uint64, p int) uint64 {
	v := uint64(uint32(ids[p]))<<2 | (taken[p>>6]>>(uint(p)&63)&1)<<1 | back[p>>6]>>(uint(p)&63)&1
	return (v + 1) * pathMix
}

// reset points the memo at a column triple and prepares it to classify
// positions lo, lo+1, ..., hi-1 in that order, as signatures over window
// n. Buffers are reused, so a memo reset per block allocates only when a
// block needs more than any earlier one.
func (m *pathMemo) reset(ids []int32, taken, back []uint64, n, lo, hi int) {
	m.n, m.ids, m.taken, m.back = n, ids, taken, back
	m.tags, m.reps, m.counts = m.tags[:0], m.reps[:0], m.counts[:0]
	m.limit = max((hi-lo)/2, pathMemoMinClasses)
	m.inserting = true
	m.epochLookups, m.epochHits = 0, 0
	m.powN = 1
	for k := 0; k < n; k++ {
		m.powN *= pathRollBase
	}
	m.roll = 0
	if start := max(lo, n); start < hi {
		for p := start - n; p < start; p++ {
			m.roll = m.roll*pathRollBase + pathEntry(ids, taken, back, p)
		}
	}
	m.resize(64)
}

// resize re-buckets every class into a cleared slot array of the given
// power-of-two size, reusing the old array's capacity when it suffices.
func (m *pathMemo) resize(size int) {
	slots := m.slots
	if cap(slots) >= size {
		slots = slots[:size]
	} else {
		slots = make([]int32, size)
	}
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

// classify returns position i's class, or -1 when the record must take
// the per-record walk. Positions must be classified in order from the
// reset's lo.
//
//bplint:hot
func (m *pathMemo) classify(i int) int32 {
	n := m.n
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
		if tags[c] == tag && m.same(i, int(reps[c])) {
			m.epochHits++
			counts[c]++
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
