package trace

import (
	"fmt"
	"maps"
	"slices"
)

// referencePack is the executable specification of a trace's Packed
// view: one map lookup per record over the record sequence, dense IDs
// in order of first appearance, and the per-ID tallies taken at the
// same time. The differential tests pin every way of building a view
// (Append then Packed, FromRecords, Read, Interleave, the corpus round
// trip) to it.
func referencePack(name string, recs []Record) *Packed {
	words := (len(recs) + 63) / 64
	p := &Packed{
		name:      name,
		ids:       make([]int32, len(recs)),
		taken:     make([]uint64, words),
		back:      make([]uint64, words),
		siteTable: siteTable{idOf: make(map[Addr]int32)},
	}
	for i, r := range recs {
		id, ok := p.idOf[r.PC]
		if !ok {
			id = int32(len(p.addrs))
			p.idOf[r.PC] = id
			p.addrs = append(p.addrs, r.PC)
			p.counts = append(p.counts, 0)
			p.takenCounts = append(p.takenCounts, 0)
			if id%64 == 0 {
				p.firstBack = append(p.firstBack, 0)
			}
			if r.Backward {
				p.firstBack[id/64] |= 1 << (id % 64)
			}
		}
		p.ids[i] = id
		p.counts[id]++
		if r.Taken {
			p.takenCounts[id]++
			p.taken[i/64] |= 1 << (i % 64)
		}
		if r.Backward {
			p.back[i/64] |= 1 << (i % 64)
		}
	}
	return p
}

// packedDiff describes the first way got differs from want, column by
// column and padding included, or returns "" when they are equal.
func packedDiff(got, want *Packed) string {
	switch {
	case got.name != want.name:
		return fmt.Sprintf("name %q, want %q", got.name, want.name)
	case !slices.Equal(got.ids, want.ids):
		return fmt.Sprintf("ids %v, want %v", got.ids, want.ids)
	case !slices.Equal(got.taken, want.taken):
		return fmt.Sprintf("taken words %x, want %x", got.taken, want.taken)
	case !slices.Equal(got.back, want.back):
		return fmt.Sprintf("backward words %x, want %x", got.back, want.back)
	case !slices.Equal(got.addrs, want.addrs):
		return fmt.Sprintf("addrs %x, want %x", got.addrs, want.addrs)
	case !maps.Equal(got.idOf, want.idOf):
		return fmt.Sprintf("idOf %v, want %v", got.idOf, want.idOf)
	case !slices.Equal(got.counts, want.counts):
		return fmt.Sprintf("counts %v, want %v", got.counts, want.counts)
	case !slices.Equal(got.takenCounts, want.takenCounts):
		return fmt.Sprintf("taken counts %v, want %v", got.takenCounts, want.takenCounts)
	case !slices.Equal(got.firstBack, want.firstBack):
		return fmt.Sprintf("first-backward words %x, want %x", got.firstBack, want.firstBack)
	}
	return ""
}

// records reads a trace's records back from its packed view.
func records(t *Trace) []Record {
	p := t.Packed()
	recs := make([]Record, p.Len())
	for i := range recs {
		recs[i] = p.Record(i)
	}
	return recs
}
