package core

import (
	"branchcorr/internal/obs"
	"branchcorr/internal/trace"
)

// This file is the oracle's one block driver. Every oracle pass — the
// profile pass, the collection pass, and the streamed select stage's
// intern-table read — takes its records as trace.Blocks from an
// oracleInput, and each pass runs the same per-block step whatever the
// input: the carried column window below, then profileRange or
// collectRange over the block's positions in it. An in-memory run hands
// the packed trace over as one zero-copy block, together with its
// path-signature memo; a streamed run re-opens its BlockSource per pass
// and takes no memo, so every record walks, in record order. Resident
// state is one block of columns plus a WindowLen-record carry, the
// per-branch candidate tables, and the emitter scratch.
//
// The stitching invariant: before processing a block, the column view
// is [carry | block] where carry is the last min(WindowLen, records
// seen) records of the stream so far. Every emit position p in the
// block therefore sees exactly the records (p-WindowLen, p) it would
// see in the full column, so window emission — and everything
// downstream of it — is independent of the block size.

// oracleInput is the record stream one oracle run reads, pass after
// pass: an in-memory packed trace (whole) or a stream opener (open),
// exactly one of them set.
type oracleInput struct {
	whole *trace.Packed
	open  func() (trace.BlockSource, error)
	memo  *oracleMemo // whole's path-signature classes, once a pass asked for them
}

// memoAt returns the in-memory trace's path-signature classes at window
// n, classifying the trace on first use; streamed inputs have none. One
// run asks at one window only, its largest.
func (in *oracleInput) memoAt(n int) *oracleMemo {
	if in.whole != nil && in.memo == nil {
		in.memo = newPackedMemo(in.whole, n)
	}
	return in.memo
}

// pass is one pass over the input, in record order. Each block joins a
// column window carrying em's largest window, em is pointed at the view
// with its scratch grown to the intern table so far, and step runs over
// the block's view positions [lo, hi) with that intern table. pass
// returns the complete intern table. It is the only place the oracle
// reads a BlockSource; each streamed block counts in
// core.oracle.stream.blocks.
func (in *oracleInput) pass(reg *obs.Registry, em *oracleEmitter, step func(lo, hi int, addrs []trace.Addr)) ([]trace.Addr, error) {
	win := columnWindow{n: em.windows[len(em.windows)-1]}
	feed := func(blk trace.Block, addrs []trace.Addr) {
		em.growScratch(len(addrs))
		lo := win.extendRange(blk, 0, blk.Len())
		em.setColumns(win.view)
		step(lo, lo+blk.Len(), addrs)
		win.retire(lo + blk.Len())
	}
	if in.whole != nil {
		feed(wholeBlock(in.whole), in.whole.Addrs())
		return in.whole.Addrs(), nil
	}
	src, err := in.open()
	if err != nil {
		return nil, err
	}
	for {
		blk, ok := src.Next()
		if !ok {
			break
		}
		reg.Counter("core.oracle.stream.blocks").Inc()
		feed(blk, src.Addrs())
	}
	if err := src.Err(); err != nil {
		return nil, err
	}
	return src.Addrs(), nil
}

// wholeBlock views a packed trace as one zero-copy block. Pack zero-pads
// its bitsets, so at offset 0 the block-relative bits are the absolute
// ones.
func wholeBlock(pt *trace.Packed) trace.Block {
	return trace.Block{IDs: pt.IDs(), Taken: pt.TakenWords(), Back: pt.BackwardWords()}
}

// columnWindow maintains the [carry | chunk] column view. A chunk that
// arrives with nothing carried is viewed in place, with no copy;
// otherwise the view lives in reused buffers, which also hold the carry
// between chunks.
type columnWindow struct {
	n     int         // window length = max carried records
	view  trace.Block // the current [carry | chunk] columns
	carry int         // carried records at the head of the view
	buf   trace.Block // storage for a view that carries records
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

// extendRange appends records [lo, hi) of src, whose bit i describes
// record i (a trace block, or a kernel block's full or chunk columns),
// after the carried tail and returns the view position of record lo.
func (w *columnWindow) extendRange(src trace.Block, lo, hi int) int {
	base := w.carry
	if base == 0 && lo == 0 {
		w.view = trace.Block{IDs: src.IDs[:hi], Taken: src.Taken, Back: src.Back}
		return 0
	}
	w.copyIn(src, lo, hi, base)
	w.view = w.buf
	return base
}

// retire moves the last min(n, total) records of the view to the head
// of the buffers, forming the next chunk's carry.
func (w *columnWindow) retire(total int) {
	w.carry = min(w.n, total)
	w.copyIn(w.view, total-w.carry, total, 0)
}

// copyIn writes records [lo, hi) of src to the buffers from position
// at on, re-basing each bit. src may be the buffers themselves when
// at <= lo: every record then moves toward the head, so no position is
// read after it was overwritten.
func (w *columnWindow) copyIn(src trace.Block, lo, hi, at int) {
	w.buf.IDs = append(w.buf.IDs[:at], src.IDs[lo:hi]...)
	for words := (at + hi - lo + 63) / 64; len(w.buf.Taken) < words; {
		w.buf.Taken = append(w.buf.Taken, 0)
		w.buf.Back = append(w.buf.Back, 0)
	}
	for i := lo; i < hi; i++ {
		setBit1(w.buf.Taken, at+i-lo, src.Taken1(i))
		setBit1(w.buf.Back, at+i-lo, src.Back1(i))
	}
}
