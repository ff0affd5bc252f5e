package bp

import (
	"math/bits"

	"branchcorr/internal/trace"
)

// This file runs the combining predictors (Hybrid, Tournament) on their
// components' kernels. Both components of either predictor train on
// every record from the outcome stream alone; the chooser only decides
// which of their predictions counts. Replaying a component over a tile
// before the chooser therefore leaves the same state as the interleaved
// scalar loop. Per tile of the block:
//
//   - each component fills a hit column (bit set iff it predicted the
//     record correctly) from its own kernel loop when it has one
//     (columnKernel: bimodal, gshare, GAs, PAs, IF-gshare, and the
//     combining predictors themselves, so nesting composes), else from
//     its scalar Predict/Update pair, or reads it from a column a
//     whole-trace run of the component stored earlier (storedColumn,
//     SimulateColumns);
//   - one chooser loop reads the two columns and the outcomes, adds the
//     selected component's hits to the per-ID counts, and trains the
//     chooser in the scalar order: toward a when only a was right,
//     toward b when only b was.
//
// Comparing hits rather than predictions is exact: both components are
// judged against the same outcome, so they disagree in prediction iff
// they disagree in correctness.
//
// This chooser loop is the combining predictors' one fast path: the
// fused hybrid grid (HybridSweep) runs it too, per config, with b a
// storedColumn over the block's shared bimodal hit column.

// columnLoop is a kernel loop resolved for one block. run replays the
// block's records [lo, hi) exactly as the predictor's SimulateBlock
// would, adding to correct and returning the range's correct count.
// When hits is non-nil it also writes the range's hit column: bit b of
// word k is record lo&^63 + 64k + b, and the words it covers hold no
// bits for records outside [lo, hi).
type columnLoop interface {
	run(lo, hi int, correct []int32, hits []uint64) int
}

// columnKernel is a predictor whose kernel loop can emit a hit column.
type columnKernel interface {
	columns(blk KernelBlock) columnLoop
}

// replayWords is the walk every column loop shares: it hands records
// [lo, hi) to word one 64-bit outcome word at a time. word gets the
// word's first record index w, the IDs of its records, and their
// outcomes shifted so bit 0 is record w; it replays them in order and
// returns their correctness bits shifted in from the top (the last
// record at bit 63). replayWords realigns those bits to the hit
// column, stores them when hits is non-nil, and returns the range's
// correct count.
func replayWords(blk KernelBlock, lo, hi int, correct []int32, hits []uint64,
	word func(w int, ids []int32, tw uint64, correct []int32) uint64) int {
	ids := blk.IDs
	taken := blk.Taken
	total := 0
	for w := lo; w < hi; {
		we := min(w|63+1, hi)
		hw := word(w, ids[w:we], taken[w>>6]>>(uint(w)&63), correct) >> (uint(-we) & 63) //bplint:ignore kernel-purity one word-loop call per 64 records; the kernel word loops are //bplint:hot roots of their own
		total += bits.OnesCount64(hw)
		if hits != nil {
			hits[w>>6-lo>>6] = hw
		}
		w = we
	}
	return total
}

// HasColumn reports whether p's kernel loop writes a hit column, so
// SimulateColumn can run it.
func HasColumn(p Predictor) bool {
	_, ok := p.(columnKernel)
	return ok
}

// SimulateColumn replays blk's range [Lo, Hi) through p's kernel loop
// exactly as p's SimulateBlock would, and also writes the range's hit
// column to hits: bit b of hits[k] is record Lo&^63 + 64k + b, set iff
// p predicted it correctly, and the words the range covers hold no bits
// for records outside it. p must satisfy HasColumn.
func SimulateColumn(p Predictor, blk KernelBlock, correct []int32, hits []uint64) int {
	return p.(columnKernel).columns(blk).run(blk.Lo, blk.Hi, correct, hits)
}

// storedColumn is the column loop of a component whose whole-trace run
// was recorded earlier: it copies the range's bits out of the stored hit
// column (bit i = record i of the block's columns) without the
// predictor, so the component neither runs nor changes. It is only ever
// a chooser's component, whose per-ID counts nobody reads
// (chooserTiles.scratch), so unlike a kernel's loop it adds nothing to
// correct.
type storedColumn struct {
	hits []uint64
}

func (l storedColumn) run(lo, hi int, _ []int32, hits []uint64) int {
	if lo >= hi {
		return 0
	}
	first, last := lo>>6, (hi-1)>>6
	total := 0
	for k := first; k <= last; k++ {
		w := l.hits[k]
		if k == first {
			w &= ^uint64(0) << (uint(lo) & 63)
		}
		if k == last {
			w &= ^uint64(0) >> (63 - (uint(hi-1) & 63))
		}
		total += bits.OnesCount64(w)
		if hits != nil {
			hits[k-first] = w
		}
	}
	return total
}

// columnOr resolves a component's column loop for blk: the stored
// column when hits is non-nil, else the component's own loop.
func columnOr(p Predictor, hits []uint64, blk KernelBlock) columnLoop {
	if hits != nil {
		return storedColumn{hits: hits}
	}
	return columnsOf(p, blk)
}

// columnsOf resolves p's column loop for blk: its own kernel loop when
// it has one, else its scalar pair.
func columnsOf(p Predictor, blk KernelBlock) columnLoop {
	if k, ok := p.(columnKernel); ok {
		return k.columns(blk)
	}
	return scalarLoop{p: p, blk: blk}
}

// scalarLoop fills a component's hit column from its scalar
// Predict/Update pair on records rebuilt from the columns (a Record is
// exactly PC, Taken, Backward).
type scalarLoop struct {
	p   Predictor
	blk KernelBlock
}

func (l scalarLoop) run(lo, hi int, correct []int32, hits []uint64) int {
	return replayWords(l.blk, lo, hi, correct, hits, l.word)
}

func (l scalarLoop) word(w int, ids []int32, tw uint64, correct []int32) uint64 {
	addrs := l.blk.Addrs
	bw := l.blk.Back[w>>6] >> (uint(w) & 63)
	hw := uint64(0)
	for _, id := range ids {
		r := trace.Record{PC: addrs[id], Taken: tw&1 != 0, Backward: bw&1 != 0}
		tw >>= 1
		bw >>= 1
		ok := uint64(0)
		if l.p.Predict(r) == r.Taken {
			ok = 1
		}
		l.p.Update(r)
		hw = hw>>1 | ok<<63
		correct[id] += int32(ok)
	}
	return hw
}

// chooserTiles is a combining predictor's kernel staging, held on the
// predictor so the tile loop never allocates: the two components' hit
// columns for one tile, and the per-ID counts their loops add to (never
// read; only the chooser's selection counts).
type chooserTiles struct {
	cols    [2][sweepTile / 64]uint64
	scratch []int32
}

// chooserLoop is a combining predictor's kernel resolved for one
// block. The hybrid's chooser is indexed by address (cidx holds each
// ID's entry); the tournament's by its global history register (cidx is
// nil, and the register is loaded from and stored back to *hist around
// each run).
type chooserLoop struct {
	a, b    columnLoop // a is selected when the chooser's counter predicts taken
	blk     KernelBlock
	cidx    []uint32
	chooser []Counter2
	hist    *uint32
	h       uint32 // the history register during a run
	tlo     int    // first record of the tile being chosen
	tiles   *chooserTiles
}

// run is reached through columnLoop, so it is a //bplint:hot root of
// its own.
//
//bplint:hot
func (l *chooserLoop) run(lo, hi int, correct []int32, hits []uint64) int {
	tiles := l.tiles
	tiles.scratch = growColumn(tiles.scratch, len(l.blk.Addrs))
	scratch := tiles.scratch
	if l.hist != nil {
		l.h = *l.hist
	}
	total := 0
	// Tiles align to sweepTile in absolute record positions, so a tile's
	// column spans at most sweepTile/64 words however lo falls.
	for tlo := lo; tlo < hi; {
		thi := min(tlo&^(sweepTile-1)+sweepTile, hi)
		l.a.run(tlo, thi, scratch, tiles.cols[0][:]) //bplint:ignore kernel-purity one component loop per 2048-record tile, not per record
		l.b.run(tlo, thi, scratch, tiles.cols[1][:]) //bplint:ignore kernel-purity one component loop per 2048-record tile, not per record
		var out []uint64
		if hits != nil {
			out = hits[tlo>>6-lo>>6:]
		}
		l.tlo = tlo
		total += replayWords(l.blk, tlo, thi, correct, out, l.word) //bplint:ignore kernel-purity once per tile; its one unproven call is the chooser word loop, a //bplint:hot root of its own
		tlo = thi
	}
	if l.hist != nil {
		*l.hist = l.h
	}
	return total
}

// word is the chooser loop over one word of the current tile. Where
// the components agree in correctness the chooser neither matters nor
// trains, so the word's hit bits start as a's and only the records
// where they disagree (the set bits of a^b, a small share) read the
// chooser, take the selected component's bit, and train the entry
// toward the component that was right, in record order. The tournament's
// history register before record i is the register at the word's start
// shifted left by i with the word's first i outcomes below it, newest in
// bit 0: bit-reversing the outcome word once puts those outcomes in its
// top i bits.
//
//bplint:hot
func (l *chooserLoop) word(w int, ids []int32, tw uint64, correct []int32) uint64 {
	k := w>>6 - l.tlo>>6
	cols := &l.tiles.cols
	ha := cols[0][k] >> (uint(w) & 63)
	hb := cols[1][k] >> (uint(w) & 63)
	ch := l.chooser
	cmask := uint64(len(ch) - 1)
	cidx := l.cidx
	h := uint64(l.h)
	rev := bits.Reverse64(tw)
	n := uint(len(ids))
	hw := ha
	for d := ha ^ hb; d != 0; d &= d - 1 {
		i := uint(bits.TrailingZeros64(d))
		if i >= n {
			break
		}
		ci := (h<<i | rev>>(64-i)) & cmask
		if cidx != nil {
			ci = uint64(cidx[ids[i]]) & cmask
		}
		cc := ch[ci]
		a := hw >> i & 1
		ok := a ^ uint64(cc>>1) ^ 1 // a if the chooser selects a, else b = 1-a
		hw ^= (a ^ ok) << i
		ch[ci] = counterNext[a][cc&3]
	}
	l.h = uint32((h<<n | rev>>(64-n)) & cmask)
	x := hw
	for _, id := range ids {
		correct[id] += int32(x & 1)
		x >>= 1
	}
	return hw << (64 - n)
}

// ColumnChooser is a combining predictor that can choose over its
// components' stored hit columns (Hybrid, Tournament).
type ColumnChooser interface {
	KernelPredictor
	SimulateColumns(blk KernelBlock, a, b []uint64, correct []int32) int
}

// StoredColumns returns c with a kernel that chooses over the stored
// component columns a and b (c.SimulateColumns; nil: that component
// runs its kernel), so it is valid for one Simulate over the trace the
// columns came from. Its Predict and Update stay c's, which replay both
// components, so a reference-loop run checks the stored columns against
// a fresh replay.
func StoredColumns(c ColumnChooser, a, b []uint64) KernelPredictor {
	return storedChooser{c, a, b}
}

// storedChooser is StoredColumns' predictor.
type storedChooser struct {
	ColumnChooser
	a, b []uint64
}

func (c storedChooser) SimulateBlock(blk KernelBlock, correct []int32) int {
	return c.SimulateColumns(blk, c.a, c.b, correct)
}

// SimulateBlock implements KernelPredictor on the components' kernels
// (see the file comment).
func (h *Hybrid) SimulateBlock(blk KernelBlock, correct []int32) int {
	return h.choose(blk, nil, nil).run(blk.Lo, blk.Hi, correct, nil)
}

// SimulateColumns is SimulateBlock with either component's hit column
// given: a and b, when non-nil, are the hit columns a whole-trace run of
// components a and b wrote over blk's columns (bit i = record i
// predicted correctly), and that component is not run; a nil column runs
// the component's kernel. A component read from its column keeps its
// state, so the hybrid's later Predict calls no longer match the scalar
// replay: this is for one pass over the trace that wrote the columns.
func (h *Hybrid) SimulateColumns(blk KernelBlock, a, b []uint64, correct []int32) int {
	return h.choose(blk, a, b).run(blk.Lo, blk.Hi, correct, nil)
}

func (h *Hybrid) columns(blk KernelBlock) columnLoop { return h.choose(blk, nil, nil) }

// choose resolves the hybrid's chooser loop for blk over the components'
// columns (columnOr).
func (h *Hybrid) choose(blk KernelBlock, a, b []uint64) *chooserLoop {
	return &chooserLoop{
		a:       columnOr(h.a, a, blk),
		b:       columnOr(h.b, b, blk),
		blk:     blk,
		cidx:    pcxOf(blk.Addrs),
		chooser: h.chooser,
		tiles:   &h.tiles,
	}
}

// SimulateBlock implements KernelPredictor on the components' kernels
// (see the file comment); the chooser's history register carries across
// calls.
func (p *Tournament) SimulateBlock(blk KernelBlock, correct []int32) int {
	return p.choose(blk, nil, nil).run(blk.Lo, blk.Hi, correct, nil)
}

// SimulateColumns is SimulateBlock with either component's hit column
// given, as in Hybrid.SimulateColumns: global and local, when non-nil,
// are the gshare and PAs components' whole-trace hit columns over blk's
// columns. The chooser's history register carries across calls either
// way.
func (p *Tournament) SimulateColumns(blk KernelBlock, global, local []uint64, correct []int32) int {
	return p.choose(blk, global, local).run(blk.Lo, blk.Hi, correct, nil)
}

func (p *Tournament) columns(blk KernelBlock) columnLoop { return p.choose(blk, nil, nil) }

// choose resolves the tournament's chooser loop for blk over the
// components' columns (columnOr).
func (p *Tournament) choose(blk KernelBlock, global, local []uint64) *chooserLoop {
	return &chooserLoop{
		a:       columnOr(p.global, global, blk),
		b:       columnOr(p.local, local, blk),
		blk:     blk,
		chooser: p.chooser,
		hist:    &p.history,
		tiles:   &p.tiles,
	}
}
