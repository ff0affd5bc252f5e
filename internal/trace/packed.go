package trace

import (
	"fmt"
	"maps"
	"slices"
)

// Packed is the columnar (structure-of-arrays) view of a Trace, the
// form every analysis reads:
//
//   - every static branch site is interned to a dense ID (first-appearance
//     order), so per-branch state lives in flat slices indexed by ID
//     instead of maps keyed by Addr;
//   - the Taken and Backward columns are bitsets, one bit per dynamic
//     record, so direction tests are a shift and mask over cache-resident
//     words.
//
// A view is immutable once handed out and safe for concurrent readers.
// Trace.Packed builds it over the trace's own columns, without copying.
type Packed struct {
	name  string
	ids   []int32  // dense branch ID per dynamic record
	taken []uint64 // bit i = record i resolved taken
	back  []uint64 // bit i = record i is a backward (loop-closing) branch
	siteTable
}

// siteTable is the intern table of a trace's columns: the address of
// each dense ID, its inverse, and the per-ID tallies that let Summarize
// and Branches set up in O(static sites).
type siteTable struct {
	addrs       []Addr // ID -> static branch address, first-appearance order
	idOf        map[Addr]int32
	counts      []int32  // ID -> number of dynamic records (occurrences)
	takenCounts []int32  // ID -> number of taken records
	firstBack   []uint64 // bit id = branch id's first record is a backward branch
}

// add returns pc's dense ID, interning pc as the next ID if it is new;
// back is the backward bit of the record being interned, which is the
// site's first when the site is new.
func (s *siteTable) add(pc Addr, back bool) int32 {
	if id, ok := s.idOf[pc]; ok {
		return id
	}
	if s.idOf == nil {
		s.idOf = make(map[Addr]int32)
	}
	id := int32(len(s.addrs))
	s.idOf[pc] = id
	s.addrs = append(s.addrs, pc)
	s.counts = append(s.counts, 0)
	s.takenCounts = append(s.takenCounts, 0)
	if id&63 == 0 {
		s.firstBack = append(s.firstBack, 0)
	}
	if back {
		s.firstBack[id>>6] |= 1 << (uint(id) & 63)
	}
	return id
}

// clone returns a copy of s that shares no memory with it.
func (s siteTable) clone() siteTable {
	return siteTable{
		addrs:       slices.Clone(s.addrs),
		idOf:        maps.Clone(s.idOf),
		counts:      slices.Clone(s.counts),
		takenCounts: slices.Clone(s.takenCounts),
		firstBack:   slices.Clone(s.firstBack),
	}
}

// AssemblePacked reconstructs a Packed view from raw columns — the load
// path of the on-disk corpus format, which persists exactly these
// columns. It validates the shape a Trace's view has (every ID in
// range, IDs dense in first-appearance order, bitsets exactly sized with
// zero tail padding, intern table duplicate-free) and rebuilds the
// derived idOf map and per-ID tallies, so an assembled view is
// indistinguishable from a Trace's view of the same records.
func AssemblePacked(name string, addrs []Addr, ids []int32, taken, back []uint64) (*Packed, error) {
	if err := checkBitsets(len(ids), taken, back); err != nil {
		return nil, err
	}
	p := &Packed{
		name:  name,
		ids:   ids,
		taken: taken,
		back:  back,
		siteTable: siteTable{
			addrs:       addrs,
			idOf:        make(map[Addr]int32, len(addrs)),
			counts:      make([]int32, len(addrs)),
			takenCounts: make([]int32, len(addrs)),
			firstBack:   make([]uint64, (len(addrs)+63)/64),
		},
	}
	for id, a := range addrs {
		if _, dup := p.idOf[a]; dup {
			return nil, fmt.Errorf("trace: assemble: address 0x%x interned twice", uint32(a))
		}
		p.idOf[a] = int32(id)
	}
	seen := int32(0)
	for i, id := range ids {
		if id < 0 || int(id) >= len(addrs) {
			return nil, fmt.Errorf("trace: assemble: record %d has ID %d outside intern table of %d", i, id, len(addrs))
		}
		if id > seen {
			return nil, fmt.Errorf("trace: assemble: record %d introduces ID %d before ID %d (not first-appearance order)", i, id, seen)
		}
		if id == seen {
			p.firstBack[id>>6] |= (back[i>>6] >> (uint(i) & 63) & 1) << (uint(id) & 63)
			seen++
		}
		p.counts[id]++
		p.takenCounts[id] += int32(taken[i>>6] >> (uint(i) & 63) & 1)
	}
	if int(seen) != len(addrs) {
		return nil, fmt.Errorf("trace: assemble: intern table has %d entries but only %d IDs appear", len(addrs), seen)
	}
	return p, nil
}

// checkBitsets reports whether taken and back are the bitsets of n
// records: exactly the words n bits need, with zero padding past bit n.
func checkBitsets(n int, taken, back []uint64) error {
	words := (n + 63) / 64
	if len(taken) != words || len(back) != words {
		return fmt.Errorf("trace: bitset sizes (%d, %d words) do not match %d records (%d words)",
			len(taken), len(back), n, words)
	}
	if tail := uint(n) & 63; tail != 0 {
		mask := ^(uint64(1)<<tail - 1)
		if taken[words-1]&mask != 0 || back[words-1]&mask != 0 {
			return fmt.Errorf("trace: nonzero bitset padding past record %d", n)
		}
	}
	return nil
}

// Name returns the source trace's name.
func (p *Packed) Name() string { return p.name }

// Packed returns the view itself, so a bare columnar view satisfies
// interfaces keyed on a Packed() accessor (core.Source) interchangeably
// with *Trace.
func (p *Packed) Packed() *Packed { return p }

// Len returns the number of dynamic records.
func (p *Packed) Len() int { return len(p.ids) }

// NumBranches returns the number of distinct static branch sites.
func (p *Packed) NumBranches() int { return len(p.addrs) }

// IDs exposes the dense-ID column for read-only iteration. Callers must
// not modify it.
func (p *Packed) IDs() []int32 { return p.ids }

// ID returns record i's dense branch ID.
func (p *Packed) ID(i int) int32 { return p.ids[i] }

// AddrOf returns the static address interned as id.
func (p *Packed) AddrOf(id int32) Addr { return p.addrs[id] }

// Addrs exposes the ID -> address table for read-only iteration. Callers
// must not modify it.
func (p *Packed) Addrs() []Addr { return p.addrs }

// IDOf returns the dense ID of a static address, if the address appears
// in the trace.
func (p *Packed) IDOf(a Addr) (int32, bool) {
	id, ok := p.idOf[a]
	return id, ok
}

// Counts exposes the per-ID dynamic occurrence counts (Counts()[id] =
// number of records of branch id) for read-only iteration. Callers must
// not modify it.
func (p *Packed) Counts() []int32 { return p.counts }

// TakenCounts exposes the per-ID taken counts (TakenCounts()[id] =
// number of records of branch id resolved taken) for read-only
// iteration. Callers must not modify it.
func (p *Packed) TakenCounts() []int32 { return p.takenCounts }

// TakenWords exposes the raw taken bitset (bit i of word i/64 = record
// i resolved taken) for read-only iteration by batched kernels. Callers
// must not modify it.
func (p *Packed) TakenWords() []uint64 { return p.taken }

// BackwardWords exposes the raw backward-branch bitset for read-only
// iteration by batched kernels. Callers must not modify it.
func (p *Packed) BackwardWords() []uint64 { return p.back }

// Taken reports record i's resolved direction.
func (p *Packed) Taken(i int) bool {
	return p.taken[i>>6]>>(uint(i)&63)&1 != 0
}

// Backward reports whether record i is a backward branch.
func (p *Packed) Backward(i int) bool {
	return p.back[i>>6]>>(uint(i)&63)&1 != 0
}

// Record reconstructs record i from the columns, for consumers that
// read whole records (the trace encoder, Interleave, the reference
// implementations).
func (p *Packed) Record(i int) Record {
	return Record{PC: p.addrs[p.ids[i]], Taken: p.Taken(i), Backward: p.Backward(i)}
}
