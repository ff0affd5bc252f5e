package bp

import (
	"math/bits"
	"slices"

	"branchcorr/internal/trace"
)

// ifTable is the interference-free predictors' counter store: a flat
// open-addressed (linear-probe) table from a 64-bit key — address<<32 |
// history for IF-gshare and IF-PAs, the bare history for one branch in
// the per-branch classification pass — to a 2-bit counter, with
// Fibonacci hashing into a power-of-two slot array (the oracle candidate
// table's idiom). Memory is O(distinct keys): the table doubles at 3/4
// load and never holds a dense 2^h array per branch. An absent key reads
// as StronglyNotTaken, the counter's zero value.
//
// The replay loops insert without a load check. Before replaying n
// records they call reserve(n), the table's one amortized grow path, so
// every insertion of the replay fits under the 3/4 load bound and each
// probe chain ends at an empty slot.
type ifTable struct {
	slots []ifSlot // power-of-two sized
	shift uint     // 64 - log2(len(slots)), for Fibonacci hashing
	n     int      // occupied slots
}

// ifSlot is one table entry. c holds the counter with ifLive set, so
// the zero slot is empty and its counter bits read StronglyNotTaken.
type ifSlot struct {
	key uint64
	c   Counter2
}

const (
	ifLive          Counter2 = 4
	ifTableMinSlots          = 16
)

// newIFTable returns an empty table of the minimum size.
func newIFTable() ifTable {
	var t ifTable
	t.reset(0)
	return t
}

// slotsFor is the power-of-two slot count that holds n keys under the
// 3/4 load bound, at least min.
func slotsFor(n, min int) int {
	size := min
	for 4*n >= 3*size {
		size *= 2
	}
	return size
}

// find returns the index of key's slot, or of the empty slot that ends
// its probe chain.
func (t *ifTable) find(key uint64) int {
	slots := t.slots
	mask := len(slots) - 1
	h := int((key * 0x9E3779B97F4A7C15) >> t.shift)
	for {
		s := &slots[h&mask]
		if s.c == 0 || s.key == key {
			return h & mask
		}
		h++
	}
}

// counter returns key's counter.
func (t *ifTable) counter(key uint64) Counter2 {
	return t.slots[t.find(key)].c &^ ifLive
}

// set stores c as key's counter, inserting the key if it is absent.
func (t *ifTable) set(key uint64, c Counter2) {
	t.reserve(1)
	i := t.find(key)
	t.n += int(t.slots[i].c>>2 ^ 1)
	t.slots[i] = ifSlot{key, c | ifLive}
}

// reserve grows the table so that n more insertions keep it under 3/4
// load. Growth doubles, so each distinct key costs amortized O(1).
func (t *ifTable) reserve(n int) {
	size := slotsFor(t.n+n, len(t.slots))
	if size == len(t.slots) {
		return
	}
	old := t.slots
	slots := make([]ifSlot, size)
	t.slots = slots
	t.shift = 64 - uint(bits.TrailingZeros(uint(size)))
	for _, s := range old {
		if s.c != 0 {
			slots[t.find(s.key)] = s
		}
	}
}

// reset empties the table and sizes it for n insertions, reusing the
// backing array when it is large enough: clearing costs O(n), not the
// table's largest size, so one table serves many branches in turn.
func (t *ifTable) reset(n int) {
	size := slotsFor(n, ifTableMinSlots)
	if cap(t.slots) >= size {
		t.slots = t.slots[:size]
		clear(t.slots)
	} else {
		t.slots = make([]ifSlot, size)
	}
	t.shift = 64 - uint(bits.TrailingZeros(uint(size)))
	t.n = 0
}

// replayIFTable replays one interference-free config's table over a
// staged history<<1|outcome tile whose records have dense IDs tids (key
// keyHi[id] | history&m) and returns its correct predictions; with a
// non-nil perID it also adds each correct prediction to perID[id], and
// with a non-nil hits it sets bit off+i of hits for each correct record
// i of the tile (the caller clears the words first). The caller has
// reserved room for len(kk) insertions.
//
//bplint:hot
func replayIFTable(kk []uint64, tids []int32, keyHi []uint64, t *ifTable, m uint64, perID []int32, hits []uint64, off int) int32 {
	tids = tids[:len(kk)]
	slots := t.slots
	fresh := 0
	n := int32(0)
	for i, v := range kk {
		id := tids[i]
		k := keyHi[id] | (v>>1)&m
		s := &slots[t.find(k)]
		x := sweepStep[(s.c&3)<<1|Counter2(v&1)]
		ok := int32(x & 1)
		n += ok
		if perID != nil {
			perID[id] += ok
		}
		if hits != nil {
			j := off + i
			hits[j>>6] |= uint64(ok) << (uint(j) & 63)
		}
		fresh += int(s.c>>2 ^ 1)
		*s = ifSlot{k, Counter2(x>>1) | ifLive}
	}
	t.n += fresh
	return n
}

// ifDenseBytesPerRecord is the dense IF layout's budget per record of
// the input it indexes: the size of the ID column's 4-byte entry. It
// is a variable only so tests can force either layout.
var ifDenseBytesPerRecord uint64 = 4

// ifStore is one interference-free config's counter store, in one of
// two layouts chosen from the input. The dense layout is a flat
// byte-per-counter slice indexed by uint64(id)<<k | history&mask, id
// being the record's dense branch ID and k the config's history bits:
// no key build, no probe, one byte per counter. A config uses it while
// sites<<k bytes fit its budget, four bytes per record of the longest
// ID column it has replayed (the trace's own 4-byte entry column, or a
// streamed chunk's), so the dense table never outgrows the input it
// indexes. Past that bound (many sites, long histories, short chunks)
// the counters live in the hash (ifTable), keyed addr<<32 | history.
//
// A store starts dense only while its hash is empty. spill moves the
// non-zero counters into the hash (an absent key reads as the zero
// counter, so the zero ones need not move) when a block's new sites
// push it past the budget or a scalar Predict/Update reads it, and from
// then on the store stays on the hash. Dense IDs only grow across a
// stream's blocks, so widening the dense layout for new sites is an
// append.
type ifStore struct {
	dense  []uint8 // non-nil: the dense layout
	table  ifTable // the hash layout
	budget uint64  // the dense layout's byte bound
}

// fit resolves the store's layout for a block over sites dense IDs
// whose ID column holds n records: dense at sites<<k bytes when that
// fits the budget, else the hash, spilling a dense layout filled under
// addrs (ID -> address).
func (s *ifStore) fit(addrs []trace.Addr, n int, k uint) {
	s.budget = max(s.budget, ifDenseBytesPerRecord*uint64(n))
	size := uint64(len(addrs)) << k
	switch {
	case size <= s.budget && (s.dense != nil || s.table.n == 0):
		if grow := int(size) - len(s.dense); grow > 0 {
			s.dense = append(s.dense, make([]uint8, grow)...)
		}
	case s.dense != nil:
		s.spill(addrs, k)
	}
}

// spill moves the dense layout's non-zero counters into the hash, IDs
// naming addrs, and leaves the store on the hash.
func (s *ifStore) spill(addrs []trace.Addr, k uint) {
	m := uint64(1)<<k - 1
	for i, c := range s.dense {
		if c != 0 {
			s.table.set(uint64(addrs[i>>k])<<32|uint64(i)&m, Counter2(c)) //bplint:ignore kernel-purity the one spill to the hash: each counter moves once
		}
	}
	s.dense = nil
}

// hash returns the store's hash layout for a scalar Predict or Update,
// spilling the dense layout (filled under addrs) first.
func (s *ifStore) hash(addrs []trace.Addr, k uint) *ifTable {
	if s.dense != nil {
		s.spill(addrs, k)
	}
	return &s.table
}

// bind readies a predictor's store for a block over the dense IDs now
// (ID -> address), given the addrs its dense layout was filled under:
// those must be a prefix of now, as a stream's growing intern table is,
// or the dense layout spills. It returns the mapping to keep for a
// later spill.
func (s *ifStore) bind(addrs, now []trace.Addr, k uint) []trace.Addr {
	if len(addrs) > len(now) || !slices.Equal(addrs, now[:len(addrs)]) {
		if s.dense != nil {
			s.spill(addrs, k)
		}
		addrs = addrs[:0]
	}
	return append(addrs, now[len(addrs):]...)
}

// replayIFDense is replayIFTable over a dense layout of history width k:
// record i's counter is dense[tids[i]<<k | history&m].
//
//bplint:hot
func replayIFDense(kk []uint64, tids []int32, dense []uint8, k uint, m uint64, perID []int32, hits []uint64, off int) int32 {
	tids = tids[:len(kk)]
	n := int32(0)
	for i, v := range kk {
		id := tids[i]
		x := uint64(id)<<k | (v>>1)&m
		y := sweepStep[dense[x]<<1|uint8(v&1)]
		ok := int32(y & 1)
		n += ok
		if perID != nil {
			perID[id] += ok
		}
		if hits != nil {
			j := off + i
			hits[j>>6] |= uint64(ok) << (uint(j) & 63)
		}
		dense[x] = y >> 1
	}
	return n
}
