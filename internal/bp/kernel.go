package bp

import "branchcorr/internal/trace"

// This file is the columnar (batched) execution contract for the hot
// predictor set. The scalar Predict/Update methods remain the executable
// specification; a KernelPredictor additionally knows how to replay a
// whole block of a packed trace through the identical state transition
// without an interface call, a Record struct load, or a map lookup per
// dynamic branch. The sim package dispatches each predictor that
// implements it to SimulateBlock; the bp conformance suite
// (kernel_test.go) pins each kernel bit-identical to its scalar
// counterpart, including across interleaved scalar/kernel calls.
//
// Each family has one fast path beside its scalar spec. GAs, PAs and
// the static predictors run their word loops here. Bimodal and gshare
// run theirs (bimodalLoop, gshareLoop) for one predictor, counting per
// branch; a grid of their configs runs sweep.go's staged replay instead,
// and the two measure at parity as one config (the impl=kernel and
// impl=sweep1 benchmark rows). Hybrid and Tournament run the chooser
// loop (kernel_chooser.go) over their components' hit columns, which
// HybridSweep also runs per config. IFGshare and IFPAs run their grids'
// staged replay (sweep_if.go) as a grid of one config over the
// predictor's own counter store and registers. The dense-table word
// loops and the IF-gshare replay also emit an optional per-record hit
// column (columnLoop in kernel_chooser.go) from the same loop;
// SimulateColumn hands it out.

// KernelBlock is the columnar input one kernel call consumes: the dense-ID and
// outcome columns of a trace.Packed plus the record range [Lo, Hi) to
// simulate. Bit i of Taken (and Back) refers to record i of the full
// columns, not of the range, so a sequence of adjacent ranges replays
// exactly the full trace. The columns are shared, read-only views;
// kernels must not modify them.
type KernelBlock struct {
	IDs   []int32      // dense branch ID per dynamic record
	Taken []uint64     // bitset: bit i = record i resolved taken
	Back  []uint64     // bitset: bit i = record i is a backward branch
	Addrs []trace.Addr // ID -> static branch address
	Lo    int          // first record to simulate
	Hi    int          // one past the last record to simulate
}

// takenBit returns record i's resolved direction as 0 or 1.
func (b KernelBlock) takenBit(i int) uint64 {
	return b.Taken[i>>6] >> (uint(i) & 63) & 1
}

// backBit returns 1 iff record i is a backward branch.
func (b KernelBlock) backBit(i int) uint64 {
	return b.Back[i>>6] >> (uint(i) & 63) & 1
}

// KernelPredictor is a Predictor that can replay a columnar trace block
// in one batched call. SimulateBlock must be observationally identical
// to calling Predict then Update for every record of the range in order:
// it consumes and leaves behind the same predictor state (so scalar and
// kernel calls may interleave on one instance), adds 1 to correct[id]
// for every record of branch id it predicts correctly, and returns the
// total number of correct predictions in the range. correct must have at
// least len(Addrs) entries; kernels only ever increment it.
type KernelPredictor interface {
	Predictor
	SimulateBlock(blk KernelBlock, correct []int32) int
}

// counterNext is the 2-bit saturating counter transition indexed
// [outcome][state]; it is exactly Counter2.Next with the branch replaced
// by a table load, so kernels stay branch-free in the inner loop.
var counterNext = [2][4]Counter2{
	{0, 0, 1, 2}, // outcome 0: saturating decrement
	{1, 2, 3, 3}, // outcome 1: saturating increment
}

// pcxOf precomputes each dense ID's word-aligned address bits (pc >> 2),
// the quantity every table-indexed predictor folds into its index. One
// O(#branches) pass replaces a per-record shift of a reloaded address.
func pcxOf(addrs []trace.Addr) []uint32 {
	out := make([]uint32, len(addrs))
	for id, a := range addrs {
		out[id] = uint32(a) >> 2
	}
	return out
}

// SimulateBlock implements KernelPredictor.
//
// The hot-path kernels (bimodal, gshare, GAs, PAs) share one shape,
// tuned for the Go compiler. replayWords walks the range one 64-bit
// outcome word at a time and hands each word's records to the family's
// word loop in a call of its own, so the per-record loop keeps its
// locals in registers rather than sharing them with the walk. Inside
// the word loop, table and mask are hoisted into locals with the mask
// recomputed as len-1 so the prove pass drops the bounds check on the
// counter access, outcomes and correctness bits shift through
// registers by constant amounts, and the correctness test is a
// branch-free 0/1 increment (accuracy-dependent branches are the one
// data-dependent branch the loop would otherwise carry).
func (p *Bimodal) SimulateBlock(blk KernelBlock, correct []int32) int {
	return p.loop(blk).run(blk.Lo, blk.Hi, correct, nil)
}

func (p *Bimodal) columns(blk KernelBlock) columnLoop { return p.loop(blk) }

// bimodalLoop is Bimodal's kernel loop resolved for one block: the
// masked counter slot of every dense ID.
type bimodalLoop struct {
	p    *Bimodal
	blk  KernelBlock
	slot []uint32
}

func (p *Bimodal) loop(blk KernelBlock) bimodalLoop {
	mask := uint32(len(p.table) - 1)
	slot := pcxOf(blk.Addrs)
	for id := range slot {
		slot[id] &= mask
	}
	return bimodalLoop{p: p, blk: blk, slot: slot}
}

func (l bimodalLoop) run(lo, hi int, correct []int32, hits []uint64) int {
	return replayWords(l.blk, lo, hi, correct, hits, l.word)
}

//bplint:hot
func (l bimodalLoop) word(_ int, ids []int32, tw uint64, correct []int32) uint64 {
	tbl := l.p.table
	mask := uint32(len(tbl) - 1)
	slot := l.slot
	hw := uint64(0)
	for _, id := range ids {
		t := tw & 1
		tw >>= 1
		x := slot[id] & mask
		c := tbl[x]
		ok := uint64(c>>1) ^ t ^ 1
		hw = hw>>1 | ok<<63
		correct[id] += int32(ok)
		tbl[x] = counterNext[t][c&3]
	}
	return hw
}

// SimulateBlock implements KernelPredictor.
func (p *Gshare) SimulateBlock(blk KernelBlock, correct []int32) int {
	return p.loop(blk).run(blk.Lo, blk.Hi, correct, nil)
}

func (p *Gshare) columns(blk KernelBlock) columnLoop { return p.loop(blk) }

// gshareLoop is Gshare's kernel loop resolved for one block: every
// dense ID's word-aligned address bits.
type gshareLoop struct {
	p   *Gshare
	blk KernelBlock
	pcx []uint32
}

func (p *Gshare) loop(blk KernelBlock) gshareLoop {
	return gshareLoop{p: p, blk: blk, pcx: pcxOf(blk.Addrs)}
}

func (l gshareLoop) run(lo, hi int, correct []int32, hits []uint64) int {
	return replayWords(l.blk, lo, hi, correct, hits, l.word)
}

//bplint:hot
func (l gshareLoop) word(_ int, ids []int32, tw uint64, correct []int32) uint64 {
	p := l.p
	pcx := l.pcx
	pht := p.pht
	mask := uint32(len(pht) - 1)
	hmask := p.histMask
	h := p.history
	hw := uint64(0)
	for _, id := range ids {
		t := tw & 1
		tw >>= 1
		slot := (pcx[id] ^ h) & mask
		c := pht[slot]
		ok := uint64(c>>1) ^ t ^ 1
		hw = hw>>1 | ok<<63
		correct[id] += int32(ok)
		pht[slot] = counterNext[t][c&3]
		h = (h<<1 | uint32(t)) & hmask
	}
	p.history = h
	return hw
}

// SimulateBlock implements KernelPredictor.
func (p *GAs) SimulateBlock(blk KernelBlock, correct []int32) int {
	return p.loop(blk).run(blk.Lo, blk.Hi, correct, nil)
}

func (p *GAs) columns(blk KernelBlock) columnLoop { return p.loop(blk) }

// gasLoop is GAs's kernel loop resolved for one block: each ID's PHT,
// so the word loop indexes the selected table by global history with
// no per-record bank select.
type gasLoop struct {
	p      *GAs
	blk    KernelBlock
	tables [][]Counter2
}

func (p *GAs) loop(blk KernelBlock) gasLoop {
	tables := make([][]Counter2, len(blk.Addrs))
	pcx := pcxOf(blk.Addrs)
	phts := p.phts
	for id := range tables {
		tables[id] = phts[pcx[id]&p.addrMask]
	}
	return gasLoop{p: p, blk: blk, tables: tables}
}

func (l gasLoop) run(lo, hi int, correct []int32, hits []uint64) int {
	return replayWords(l.blk, lo, hi, correct, hits, l.word)
}

//bplint:hot
func (l gasLoop) word(_ int, ids []int32, tw uint64, correct []int32) uint64 {
	p := l.p
	tables := l.tables
	hmask := p.histMask
	h := p.history
	hw := uint64(0)
	for _, id := range ids {
		t := tw & 1
		tw >>= 1
		tbl := tables[id]
		slot := (h & hmask) & uint32(len(tbl)-1)
		c := tbl[slot]
		ok := uint64(c>>1) ^ t ^ 1
		hw = hw>>1 | ok<<63
		correct[id] += int32(ok)
		tbl[slot] = counterNext[t][c&3]
		h = (h<<1 | uint32(t)) & hmask
	}
	p.history = h
	return hw
}

// SimulateBlock implements KernelPredictor.
func (p *PAs) SimulateBlock(blk KernelBlock, correct []int32) int {
	return p.loop(blk).run(blk.Lo, blk.Hi, correct, nil)
}

func (p *PAs) columns(blk KernelBlock) columnLoop { return p.loop(blk) }

// pasLoop is PAs's kernel loop resolved for one block: each ID's BHT
// slot and PHT bank, static properties of the address kept side by side
// so the word loop loads one slot per record. Distinct IDs may alias
// the same BHT slot or bank, so all state reads/writes still go through
// the shared tables.
type pasLoop struct {
	p     *PAs
	blk   KernelBlock
	slots []pasSlot
}

// pasSlot is one dense ID's resolved PAs geometry.
type pasSlot struct {
	pht []Counter2 // PHT bank
	bhi uint32     // BHT slot
}

func (p *PAs) loop(blk KernelBlock) pasLoop {
	slots := make([]pasSlot, len(blk.Addrs))
	phts := p.phts
	for id, a := range blk.Addrs {
		x := uint32(a) >> 2
		slots[id] = pasSlot{pht: phts[x&p.phtMask], bhi: x & p.bhtMask}
	}
	return pasLoop{p: p, blk: blk, slots: slots}
}

func (l pasLoop) run(lo, hi int, correct []int32, hits []uint64) int {
	return replayWords(l.blk, lo, hi, correct, hits, l.word)
}

//bplint:hot
func (l pasLoop) word(_ int, ids []int32, tw uint64, correct []int32) uint64 {
	slots := l.slots
	bht := l.p.bht
	bmask := uint32(len(bht) - 1)
	hmask := l.p.histMask
	hw := uint64(0)
	for _, id := range ids {
		t := tw & 1
		tw >>= 1
		sl := &slots[id]
		bi := sl.bhi & bmask
		bh := bht[bi]
		tbl := sl.pht
		hist := (bh & hmask) & uint32(len(tbl)-1)
		c := tbl[hist]
		ok := uint64(c>>1) ^ t ^ 1
		hw = hw>>1 | ok<<63
		correct[id] += int32(ok)
		tbl[hist] = counterNext[t][c&3]
		bht[bi] = (bh<<1)&hmask | uint32(t)
	}
	return hw
}

// SimulateBlock implements KernelPredictor.
func (AlwaysTaken) SimulateBlock(blk KernelBlock, correct []int32) int {
	ids := blk.IDs
	total := 0
	for i := blk.Lo; i < blk.Hi; i++ {
		if blk.takenBit(i) != 0 {
			correct[ids[i]]++
			total++
		}
	}
	return total
}

// SimulateBlock implements KernelPredictor.
func (AlwaysNotTaken) SimulateBlock(blk KernelBlock, correct []int32) int {
	ids := blk.IDs
	total := 0
	for i := blk.Lo; i < blk.Hi; i++ {
		if blk.takenBit(i) == 0 {
			correct[ids[i]]++
			total++
		}
	}
	return total
}

// SimulateBlock implements KernelPredictor.
func (BTFNT) SimulateBlock(blk KernelBlock, correct []int32) int {
	ids := blk.IDs
	total := 0
	for i := blk.Lo; i < blk.Hi; i++ {
		if blk.takenBit(i) == blk.backBit(i) {
			correct[ids[i]]++
			total++
		}
	}
	return total
}

// SimulateBlock implements KernelPredictor.
func (p *IdealStatic) SimulateBlock(blk KernelBlock, correct []int32) int {
	// Per-ID predicted direction, resolved from the profile once
	// (branches absent from the profile predict taken, as in Predict).
	pred := make([]uint64, len(blk.Addrs))
	for id, a := range blk.Addrs {
		dir, ok := p.majority[a] //bplint:ignore kernel-purity profile resolve runs once per static branch, not per record
		if !ok || dir {
			pred[id] = 1
		}
	}
	ids := blk.IDs
	total := 0
	for i := blk.Lo; i < blk.Hi; i++ {
		id := ids[i]
		if pred[id] == blk.takenBit(i) {
			correct[id]++
			total++
		}
	}
	return total
}

// SimulateBlock implements KernelPredictor as a one-config IFGshareSweep
// over the predictor's own store and history register (columns): the
// replay reads each record's counter once where the scalar Predict and
// Update read it twice.
func (p *IFGshare) SimulateBlock(blk KernelBlock, correct []int32) int {
	return p.columns(blk).run(blk.Lo, blk.Hi, correct, nil)
}

// columns resolves the one-config grid for blk, binding the store's
// dense layout to blk's IDs. Its staging buffer is sized to the block,
// up to one tile, so short streamed chunks stay cheap.
func (p *IFGshare) columns(blk KernelBlock) columnLoop {
	p.addrs = p.store.bind(p.addrs, blk.Addrs, p.histBits)
	return &ifGshareLoop{p: p, blk: blk, g: IFGshareSweep{
		bits:   []uint{p.histBits},
		hmasks: []uint64{uint64(p.histMask)},
		stores: make([]ifStore, 1),
		kt:     make([]uint64, min(sweepTile, blk.Hi-blk.Lo)),
	}}
}

// ifGshareLoop is IFGshare's kernel loop resolved for one block: the
// one-config grid its runs replay through.
type ifGshareLoop struct {
	p   *IFGshare
	blk KernelBlock
	g   IFGshareSweep
}

// run loads the predictor's store and register into the grid, replays
// [lo, hi) through IFGshareSweep.sweep, and stores them back, so runs
// over adjacent ranges (a chooser's tiles) and scalar calls may
// interleave.
func (l *ifGshareLoop) run(lo, hi int, correct []int32, hits []uint64) int {
	g := &l.g
	g.stores[0], g.history = l.p.store, l.p.history
	var total [1]int32
	g.sweep(l.blk, lo, hi, total[:], [][]int32{correct}, hits)
	l.p.store, l.p.history = g.stores[0], g.history&l.p.histMask
	return int(total[0])
}

// SimulateBlock implements KernelPredictor as a one-config IFPAsSweep
// over the predictor's own store (bound to blk's IDs as IFGshare's is),
// with its per-branch history registers loaded into the sweep's dense
// per-ID file for the duration of the block and written back at the end.
func (p *IFPAs) SimulateBlock(blk KernelBlock, correct []int32) int {
	p.addrs = p.store.bind(p.addrs, blk.Addrs, p.histBits)
	hist := make([]uint32, len(blk.Addrs))
	for id, a := range blk.Addrs {
		hist[id] = p.hist[a] //bplint:ignore kernel-purity history registers load once per static branch into a dense slice, not per record
	}
	g := IFPAsSweep{
		bits:   []uint{p.histBits},
		hmasks: []uint64{uint64(p.histMask)},
		stores: []ifStore{p.store},
		hist:   hist,
		kt:     make([]uint64, min(sweepTile, blk.Hi-blk.Lo)),
	}
	var total [1]int32
	g.sweep(blk, total[:], [][]int32{correct})
	p.store = g.stores[0]
	for id, a := range blk.Addrs {
		p.hist[a] = hist[id] & p.histMask //bplint:ignore kernel-purity per-branch history writeback runs once per static branch at block end
	}
	return int(total[0])
}
