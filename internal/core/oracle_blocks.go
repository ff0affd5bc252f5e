package core

import (
	"branchcorr/internal/obs"
	"branchcorr/internal/trace"
)

// This file runs the oracle's columnar passes over a streaming
// trace.BlockSource in bounded memory: resident state is one chunk of
// columns plus a WindowLen-record carry, the per-branch candidate
// tables, and the emitter scratch — never the full trace. The per-record
// loops are the very same profileRange/collectRange the packed path
// runs (differential tests pin the streamed results bit-identical to
// the Packed entry points); only the column window they walk is fed
// chunk by chunk. They run without a path-signature memo: every record
// walks, in record order.
//
// The stitching invariant: before processing a chunk, the column view
// is [carry | chunk] where carry is the last min(WindowLen, records
// seen) records of the stream so far. Every emit position p in the
// chunk therefore sees exactly the records (p-WindowLen, p) it would
// see in the full column, so window emission — and everything
// downstream of it — is independent of the chunk size.

// columnWindow maintains the [carry | chunk] column view with reused
// buffers.
type columnWindow struct {
	n     int // window length = max carried records
	ids   []int32
	taken []uint64
	back  []uint64
	carry int // carried records at the head of the columns
}

// setBit1 stores v's low bit at bit position p.
func setBit1(ws []uint64, p int, v uint64) {
	mask := uint64(1) << (uint(p) & 63)
	if v != 0 {
		ws[p>>6] |= mask
	} else {
		ws[p>>6] &^= mask
	}
}

// clearFrom zeroes every bit at position >= from.
func clearFrom(ws []uint64, from int) {
	w := from >> 6
	if w >= len(ws) {
		return
	}
	ws[w] &= uint64(1)<<(uint(from)&63) - 1
	for j := w + 1; j < len(ws); j++ {
		ws[j] = 0
	}
}

// extend appends the chunk's records after the carried tail and returns
// the column position of the chunk's first record. Block bitsets are
// block-relative, so each bit is re-based by the carry offset.
func (w *columnWindow) extend(blk trace.Block) int {
	return w.extendRange(blk.IDs, blk.Taken, blk.Back, 0, blk.Len())
}

// extendRange is extend over records [lo, hi) of a column triple whose
// bit i describes record i (a kernel block's full or chunk columns).
func (w *columnWindow) extendRange(ids []int32, taken, back []uint64, lo, hi int) int {
	base := w.carry
	total := base + hi - lo
	w.ids = append(w.ids[:base], ids[lo:hi]...)
	for words := (total + 63) / 64; len(w.taken) < words; {
		w.taken = append(w.taken, 0)
		w.back = append(w.back, 0)
	}
	clearFrom(w.taken, base)
	clearFrom(w.back, base)
	for i := lo; i < hi; i++ {
		setBit1(w.taken, base+i-lo, taken[i>>6]>>(uint(i)&63)&1)
		setBit1(w.back, base+i-lo, back[i>>6]>>(uint(i)&63)&1)
	}
	return base
}

// retire slides the last min(n, total) records of the current view to
// the head of the columns, forming the next chunk's carry.
func (w *columnWindow) retire(total int) {
	nc := w.n
	if total < nc {
		nc = total
	}
	if shift := total - nc; shift > 0 {
		copy(w.ids[:nc], w.ids[shift:total])
		for i := 0; i < nc; i++ {
			src := shift + i
			setBit1(w.taken, i, w.taken[src>>6]>>(uint(src)&63)&1)
			setBit1(w.back, i, w.back[src>>6]>>(uint(src)&63)&1)
		}
	}
	w.carry = nc
}

// profileBlocks is pass 1's streaming driver: per-branch tables grow
// with the source's intern table, and each chunk runs through
// profileRange at the carry boundary. Returns the final profiles and
// the complete intern table.
func profileBlocks(src trace.BlockSource, cfg OracleConfig) ([]kernelProfile, []trace.Addr, error) {
	reg := obs.Or(cfg.Obs)
	em := newOracleEmitter([]int{cfg.WindowLen})
	win := columnWindow{n: cfg.WindowLen}
	pf := newProfiler(em, nil, cfg, nil)
	for {
		blk, ok := src.Next()
		if !ok {
			break
		}
		pf.addrs = src.Addrs()
		if len(pf.profiles) < len(pf.addrs) {
			pf.profiles = append(pf.profiles, newProfiles(len(pf.addrs)-len(pf.profiles), 1)...)
		}
		em.growScratch(len(pf.addrs))
		base := win.extend(blk)
		em.setColumns(win.ids, win.taken, win.back)
		pf.profileRange(base, base+blk.Len(), nil)
		win.retire(base + blk.Len())
		reg.Counter("core.oracle.stream.blocks").Inc()
	}
	if err := src.Err(); err != nil {
		return nil, nil, err
	}
	return pf.profiles, src.Addrs(), nil
}

// profilePass runs pass 1 over a stream and returns both the ranked
// candidates and the complete intern table the stream produced.
func profilePass(src trace.BlockSource, cfg OracleConfig) (map[trace.Addr]*Candidates, []trace.Addr, error) {
	defer obs.Or(cfg.Obs).StartSpan("core.oracle.profile").End()
	profiles, addrs, err := profileBlocks(src, cfg)
	if err != nil {
		return nil, nil, err
	}
	return assembleCandidates(profiles, addrs, cfg, 1, 0)[0], addrs, nil
}

// internIndex builds an ID-resolution closure over a complete intern
// table, standing in for Packed.IDOf on the streaming path.
func internIndex(addrs []trace.Addr) func(trace.Addr) (int32, bool) {
	idx := make(map[trace.Addr]int32, len(addrs))
	for id, a := range addrs {
		idx[a] = int32(id)
	}
	return func(a trace.Addr) (int32, bool) {
		id, ok := idx[a]
		return id, ok
	}
}

// selectBlocks is oracle passes 2+3 over a streaming block source:
// bit-identical to the packed select pass on the equivalent trace. addrs
// must be the complete intern table of the stream (as returned by the
// profile pass over the same records — a BlockSource re-opened on the
// same input yields the same first-appearance IDs), so beam matchers
// can be built up front.
func selectBlocks(src trace.BlockSource, addrs []trace.Addr, cands map[trace.Addr]*Candidates, cfg OracleConfig) (*Selections, error) {
	cfg = cfg.withDefaults()
	defer obs.Or(cfg.Obs).StartSpan("core.oracle.select").End()

	windowed := []map[trace.Addr]*Candidates{cands}
	pcs := sortedPCs(windowed)
	matchers, matcherOf := buildMatchers(pcs, windowed, len(addrs), internIndex(addrs))

	em := newOracleEmitter([]int{cfg.WindowLen})
	em.growScratch(len(addrs))
	win := columnWindow{n: cfg.WindowLen}
	for {
		blk, ok := src.Next()
		if !ok {
			break
		}
		base := win.extend(blk)
		em.setColumns(win.ids, win.taken, win.back)
		collectRange(em, matchers, base, base+blk.Len(), nil)
		win.retire(base + blk.Len())
	}
	if err := src.Err(); err != nil {
		return nil, err
	}
	return scoreSelections(pcs, cands, matcherOf, 0, cfg), nil
}
