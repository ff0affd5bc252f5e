package core

import (
	"math/bits"
	"slices"
)

// This file is the path-signature memo behind the oracle's profile and
// collection passes and the fused selective sweep. What the columnar
// emitter produces for record i depends only on the record's branch and
// the n (id, taken, backward) entries before it, n being the walk's
// largest window. Branch streams tend to reuse a small set of such
// (branch, path) contexts — the synthetic workloads heavily — so most
// records repeat a signature an earlier record already had: the memo
// maps each record to the first
// position with its signature (its class's representative), and the
// consumers walk once per class instead of once per record.
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

// pathMemo classifies the records of one column range by path
// signature. Representatives are positions in the columns the memo was
// reset over, so those columns must outlive every use of the classes:
// the packed trace for oracle runs, a kernel block's full columns
// for the sweep.
//
// Memory is bounded per record of the range: at most one class per two
// records (pathMemoMinClasses for a shorter range), each costing its
// hash tag, representative and record count plus at most 8/3 hash slots
// (the table doubles past 3/4 load) — at most 23 bytes per class, so
// under 12 bytes per record. The oracle's consumers add a class column
// and an instance list (4 bytes per record each) and 4 bytes per class,
// under 22 bytes per record in all; they drop the tags and slots once
// the range is classified and the rest once the collection pass is
// done. The sweep adds one byte per config per class.
type pathMemo struct {
	n           int // signature window: the walk's largest window
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
// the per-record walk; fresh reports that i founded its class (it is the
// representative). Positions must be classified in order from the reset's
// lo.
//
//bplint:hot
func (m *pathMemo) classify(i int) (class int32, fresh bool) {
	n := m.n
	if i < n {
		return -1, false
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
			return c, false
		}
		k = (k + 1) & mask
	}
	if !m.inserting || len(m.reps) >= m.limit {
		return -1, false
	}
	c := int32(len(m.reps))
	m.tags, m.reps, m.counts = extend(m.tags, 1), extend(m.reps, 1), extend(m.counts, 1)
	m.tags[c], m.reps[c], m.counts[c] = tag, int32(i), 1
	slots[k] = c
	if 4*len(m.reps) > 3*len(slots) {
		m.resize(2 * len(slots))
	}
	return c, true
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
