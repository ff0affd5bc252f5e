// Package trace provides the branch-trace substrate for the study: the
// dynamic conditional-branch record type, in-memory traces, a compact
// binary on-disk encoding with streaming reader/writer, and summary
// statistics.
//
// A trace is the sequence of all dynamically executed conditional branches
// of one workload run, in program order. Every analysis in this repository
// is trace-driven, mirroring the simulation methodology of Evers et al.
// (ISCA 1998), section 3.5.
package trace

import (
	"fmt"
	"slices"
	"sync"

	"branchcorr/internal/obs"
)

// Addr identifies a static branch site. It plays the role of the branch
// instruction's address in a real trace; synthetic workloads allocate
// addresses from disjoint per-workload ranges with the customary 4-byte
// instruction spacing.
type Addr uint32

// Record is one dynamically executed conditional branch.
type Record struct {
	// PC is the address of the static branch site.
	PC Addr
	// Taken reports the resolved direction.
	Taken bool
	// Backward reports whether the branch target precedes the branch
	// (a loop-closing branch). It is a static property of the site, kept
	// per record so streaming consumers need no side table. Backward
	// branches drive the backward-count tagging scheme of section 3.2.
	Backward bool
}

// String renders a record compactly, e.g. "0x4000 T" or "0x4010 N back".
func (r Record) String() string {
	dir := "N"
	if r.Taken {
		dir = "T"
	}
	if r.Backward {
		return fmt.Sprintf("0x%x %s back", uint32(r.PC), dir)
	}
	return fmt.Sprintf("0x%x %s", uint32(r.PC), dir)
}

// Trace is an in-memory branch trace, held as the columns of its Packed
// view and nothing else: a 4-byte entry per record plus one taken and
// one backward bit. Append writes a record's PC into the entry; the
// next Packed call interns the PCs appended since the last one to
// dense branch IDs in place. Records are read back through the view
// (Packed().Record).
type Trace struct {
	name string

	// mu serializes Packed, whose intern rewrites col in place.
	mu sync.Mutex
	// col[i] is record i's dense branch ID for i < interned, and its
	// PC for i >= interned.
	col      []int32
	interned int
	taken    []uint64 // bit i = record i resolved taken
	back     []uint64 // bit i = record i is a backward branch
	sites    siteTable
	// view is the Packed view of the current length, once one has been
	// handed out. It shares the columns, so the next Append first gives
	// the trace its own copy of whatever it would write (unshare).
	view *Packed
}

// New returns an empty trace with the given name (typically the workload
// name) and capacity hint.
func New(name string, capacity int) *Trace {
	return &Trace{
		name:  name,
		col:   make([]int32, 0, capacity),
		taken: make([]uint64, 0, (capacity+63)/64),
		back:  make([]uint64, 0, (capacity+63)/64),
	}
}

// FromRecords builds a trace holding a copy of recs.
func FromRecords(name string, recs []Record) *Trace {
	t := New(name, len(recs))
	for _, r := range recs {
		t.Append(r)
	}
	return t
}

// FromColumns returns a trace over raw columns, which it takes over:
// pcs[i] holds record i's PC (its bits, as an int32), and bit i of
// taken and back its direction and backward bit. The bitsets must hold
// exactly the words the records need, with zero bits past the last
// record. Generators that know their length fill these columns
// directly, with no per-record call.
func FromColumns(name string, pcs []int32, taken, back []uint64) (*Trace, error) {
	if err := checkBitsets(len(pcs), taken, back); err != nil {
		return nil, err
	}
	return &Trace{name: name, col: pcs, taken: taken, back: back}, nil
}

// FromPacked wraps a columnar view as a Trace without copying: the
// trace's columns are p's, and its first Packed call returns p itself.
// The corpus store's hit path loads traces this way, paying neither
// re-interning nor bitset reconstruction.
func FromPacked(p *Packed) *Trace {
	n := len(p.ids)
	return &Trace{
		name:     p.name,
		col:      p.ids[:n:n],
		interned: n,
		taken:    p.taken,
		back:     p.back,
		sites:    p.siteTable,
		view:     p,
	}
}

// Name returns the trace's name.
func (t *Trace) Name() string { return t.name }

// Len returns the number of dynamic branches in the trace.
func (t *Trace) Len() int { return len(t.col) }

// At returns the i'th record, read from the Packed view. Loops over
// many records should take the view once and call its Record.
func (t *Trace) At(i int) Record { return t.Packed().Record(i) }

// Append adds a record to the trace. It is not safe for concurrent use.
func (t *Trace) Append(r Record) {
	if t.view != nil {
		t.unshare()
	}
	i := len(t.col)
	if i&63 == 0 {
		t.taken = append(t.taken, 0)
		t.back = append(t.back, 0)
	}
	t.col = append(t.col, int32(r.PC))
	t.taken[i>>6] |= b2u(r.Taken) << (uint(i) & 63)
	t.back[i>>6] |= b2u(r.Backward) << (uint(i) & 63)
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// unshare gives the trace its own copy of every column an Append or a
// later intern would write inside the view already handed out: the
// bitsets (whose last word the view holds) and the intern table. The ID
// column is not copied: the view's slice of it is capped at its length,
// and appends and interning write only past that.
func (t *Trace) unshare() {
	t.taken = slices.Clone(t.taken)
	t.back = slices.Clone(t.back)
	t.sites = t.sites.clone()
	t.view = nil
}

// Packed returns the trace's columnar view. The first call after an
// Append interns the PCs appended since the previous view, in place, and
// builds the view over the columns (counter trace.pack.builds, span
// trace.pack); later calls return the same view. A view never changes
// once handed out, whatever is appended to the trace afterwards. Safe
// for concurrent callers.
func (t *Trace) Packed() *Packed {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.view == nil {
		reg := obs.Default()
		reg.Counter("trace.pack.builds").Inc()
		span := reg.StartSpan("trace.pack")
		t.intern()
		n := len(t.col)
		t.view = &Packed{name: t.name, ids: t.col[:n:n], taken: t.taken, back: t.back, siteTable: t.sites}
		span.End()
	}
	return t.view
}

// internCacheBits sizes the direct-mapped PC -> ID cache in front of the
// intern map. Workload traces have tens of static sites, so nearly
// every record hits the cache and the map sees about one lookup per
// site.
const internCacheBits = 10

// intern replaces the PCs in col[interned:] by their dense IDs,
// assigning new IDs in order of first appearance, and tallies each
// record into its site's counts.
func (t *Trace) intern() {
	// id+1 per slot, so the zero slot is empty.
	var cache [1 << internCacheBits]struct {
		pc Addr
		id int32
	}
	col, taken, s := t.col, t.taken, &t.sites
	for i := t.interned; i < len(col); i++ {
		pc := Addr(col[i])
		e := &cache[uint32(pc)*0x9e3779b1>>(32-internCacheBits)]
		id := e.id - 1
		if id < 0 || e.pc != pc {
			id = s.add(pc, t.back[i>>6]>>(uint(i)&63)&1 != 0)
			e.pc, e.id = pc, id+1
		}
		col[i] = id
		s.counts[id]++
		s.takenCounts[id] += int32(taken[i>>6] >> (uint(i) & 63) & 1)
	}
	t.interned = len(col)
}
