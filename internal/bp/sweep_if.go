package bp

import (
	"fmt"

	"branchcorr/internal/trace"
)

// This file extends the fused-sweep contract (sweep.go) to the
// interference-free predictor variants. IF predictors keep unbounded
// per-(address, history) counter state (ifStore, iftable.go: a dense
// (ID, history) array while it fits the input, else a flat
// open-addressed table) rather than the fixed power-of-2 arrays of the
// other families, but the sharing argument is identical:
//
//   - IFGshareSweep: one unmasked global history register serves every
//     history length, because a config's counter key is
//     addr<<32 | (h & mask_c) and each config's masked register equals
//     the shared register's low bits. Per config: only the table.
//   - IFPAsSweep: one dense per-ID table of unmasked local history
//     registers serves every length. Distinct addresses get distinct
//     dense IDs (the packed view's interning is injective), so unlike
//     the real PAs there is no aliasing to preserve and the register
//     file is exact for every config simultaneously.
//
// Both grids run one staged replay: a shared pass stages each tile's
// records as 64-bit words (unmasked 32-bit history plus the outcome
// bit; stageGlobal or stageLocal), and every config replays the tile
// through its store (replayIFDense or replayIFTable); the hash's per-ID
// key prefix addr<<32 is a cached column like pcx. Each block first
// fits every config's store to the block (ifStore.fit), so within one
// grid some configs may replay dense and the longer ones hashed. This
// is each IF family's one fast path: the IFGshare and IFPAs kernels
// (kernel.go) are one-config grids of it over the predictor's own store
// and registers, and IFGshareSweep's loop also writes the one-config
// kernel's hit column. Steady-state blocks allocate only what the
// semantics require: a dense layout's append for new sites, and hash
// growth for never-seen (address, history) pairs, taken once per tile
// by ifTable.reserve. The staging scratch and derived columns are
// allocated once and reused, which sweep_alloc_test.go pins with a
// bounded (amortized) gate.

// extendKeyHi grows a cached per-ID table-key-prefix column (addr<<32) to
// cover addrs, mirroring extendPcx.
func extendKeyHi(keyHi []uint64, addrs []trace.Addr) []uint64 {
	old := len(keyHi)
	keyHi = growColumn(keyHi, len(addrs))
	for id := old; id < len(keyHi); id++ {
		keyHi[id] = uint64(addrs[id]) << 32
	}
	return keyHi
}

// stageGlobal stages records [j, j+len(kk)) of the taken bitset as
// history<<1 | outcome words, h being the global register before the
// first of them, and returns the register advanced past the last.
//
//bplint:hot
func stageGlobal(kk []uint64, taken []uint64, j int, h uint32) uint32 {
	for i := range kk {
		t := taken[j>>6] >> (uint(j) & 63) & 1
		kk[i] = uint64(h)<<1 | t
		h = h<<1 | uint32(t)
		j++
	}
	return h
}

// stageLocal stages records [j, j+len(kk)) of the taken bitset, whose
// dense IDs are tids, as history<<1 | outcome words from the per-ID
// registers hist, advancing each record's register past it (every
// config trains with the history as it stood before the branch).
//
//bplint:hot
func stageLocal(kk []uint64, taken []uint64, tids []int32, j int, hist []uint32) {
	tids = tids[:len(kk)]
	for i := range kk {
		t := taken[j>>6] >> (uint(j) & 63) & 1
		id := tids[i]
		lh := hist[id]
		kk[i] = uint64(lh)<<1 | t
		hist[id] = lh<<1 | uint32(t)
		j++
	}
}

// replayIFStores replays a staged tile whose records have dense IDs tids
// through every config's store (config c keyed by bits[c] of history,
// mask hmasks[c]), adding config c's correct predictions to correct[c]
// and, when branches is non-nil, to branches[c][id]. With a non-nil hits
// (only a one-config grid passes one) it sets bit off+i of hits for each
// correct record i of the tile. The caller has reserved room in each
// hashed store for the tile's insertions (reserveStores).
//
//bplint:hot
func replayIFStores(kk []uint64, tids []int32, keyHi []uint64, stores []ifStore, bits []uint, hmasks []uint64, correct []int32, branches [][]int32, hits []uint64, off int) {
	correct = correct[:len(stores)]
	for c := range stores {
		var perID []int32
		if branches != nil {
			perID = branches[c]
		}
		s := &stores[c]
		if s.dense != nil {
			correct[c] += replayIFDense(kk, tids, s.dense, bits[c], hmasks[c], perID, hits, off)
		} else {
			correct[c] += replayIFTable(kk, tids, keyHi, &s.table, hmasks[c], perID, hits, off)
		}
	}
}

// fitStores fits every config's store to blk (ifStore.fit).
func fitStores(stores []ifStore, bits []uint, blk KernelBlock) {
	n := len(blk.IDs)
	for c := range stores {
		stores[c].fit(blk.Addrs, n, bits[c]) //bplint:ignore kernel-purity once per block and config: a dense layout's append for new sites, or its one spill
	}
}

// reserveStores makes room for n insertions in every hashed store.
func reserveStores(stores []ifStore, n int) {
	for c := range stores {
		if stores[c].dense == nil {
			stores[c].table.reserve(n) //bplint:ignore kernel-purity the table's amortized grow path: each distinct (address, history) pair costs O(1)
		}
	}
}

// IFGshareSweep is the fused interference-free gshare grid: one config
// per history length, all sharing one unmasked global history register;
// per config only the table.
type IFGshareSweep struct {
	bits    []uint
	hmasks  []uint64 // per-config history mask (widened for the key or)
	stores  []ifStore
	history uint32 // shared unmasked global history
	keyHi   []uint64
	kt      []uint64 // tile staging: history<<1 | outcome
}

// NewIFGshareSweep returns a fused grid of IF-gshare configs, one per
// entry of historyBits (each within NewIFGshare's [1,32] range), in
// argument order.
func NewIFGshareSweep(historyBits []uint) *IFGshareSweep {
	if len(historyBits) == 0 {
		panic("bp: IF-gshare sweep needs at least one config")
	}
	hmasks := make([]uint64, len(historyBits))
	stores := make([]ifStore, len(historyBits))
	for c, b := range historyBits {
		if b == 0 || b > 32 {
			panic(fmt.Sprintf("bp: IF-gshare history bits %d out of range [1,32]", b))
		}
		hmasks[c] = uint64(1)<<b - 1
		stores[c].table = newIFTable()
	}
	return &IFGshareSweep{
		bits:   append([]uint(nil), historyBits...),
		hmasks: hmasks,
		stores: stores,
		kt:     make([]uint64, sweepTile),
	}
}

// GridName implements SweepGrid.
func (g *IFGshareSweep) GridName() string {
	return fmt.Sprintf("if-gshare-hist(%d configs, %d..%d bits)", len(g.bits), g.bits[0], g.bits[len(g.bits)-1])
}

// ConfigNames implements SweepGrid; names match NewIFGshare's.
func (g *IFGshareSweep) ConfigNames() []string {
	out := make([]string, len(g.bits))
	for c, b := range g.bits {
		out[c] = fmt.Sprintf("IF-gshare(%d)", b)
	}
	return out
}

// Configs implements SweepGrid.
func (g *IFGshareSweep) Configs() []Predictor {
	out := make([]Predictor, len(g.bits))
	for c, b := range g.bits {
		out[c] = NewIFGshare(b)
	}
	return out
}

// Shard implements SweepGrid: a fresh fused grid over the history
// lengths [lo, hi).
func (g *IFGshareSweep) Shard(lo, hi int) SweepGrid {
	checkShardRange(lo, hi, len(g.bits))
	return NewIFGshareSweep(g.bits[lo:hi])
}

// SweepBlock implements SweepKernel.
func (g *IFGshareSweep) SweepBlock(blk KernelBlock, correct []int32) {
	g.sweep(blk, blk.Lo, blk.Hi, correct, nil, nil)
}

// sweep replays records [lo, hi) of blk through every config, a tile of
// at most min(sweepTile, hi-lo) records at a time: per tile, stageGlobal
// advances the shared register, then replayIFStores runs every config.
// Non-nil branches and hits (only IFGshare's one-config kernel passes
// them) also count per branch and write the range's hit column: bit b of
// hits[k] is record lo&^63 + 64k + b, and the words the range covers
// hold no bits for records outside it. A tile sets its bits from its own
// first record's word and bit, so they land right wherever tiles start.
//
//bplint:hot
func (g *IFGshareSweep) sweep(blk KernelBlock, lo, hi int, correct []int32, branches [][]int32, hits []uint64) {
	g.keyHi = extendKeyHi(g.keyHi, blk.Addrs)
	fitStores(g.stores, g.bits, blk)
	if hits != nil && lo < hi {
		clear(hits[:(hi-1)>>6-lo>>6+1])
	}
	h := g.history
	for tlo := lo; tlo < hi; tlo += sweepTile {
		thi := min(tlo+sweepTile, hi)
		kk := g.kt[:thi-tlo]
		h = stageGlobal(kk, blk.Taken, tlo, h)
		reserveStores(g.stores, len(kk)) //bplint:ignore kernel-purity once per tile: the hash's amortized grow path
		var th []uint64
		if hits != nil {
			th = hits[tlo>>6-lo>>6:]
		}
		replayIFStores(kk, blk.IDs[tlo:thi], g.keyHi, g.stores, g.bits, g.hmasks, correct, branches, th, tlo&63)
	}
	g.history = h
}

// IFPAsSweep is the fused interference-free PAs grid: one config per
// local history length, all sharing one dense per-ID file of unmasked
// history registers; per config only the table.
type IFPAsSweep struct {
	bits   []uint
	hmasks []uint64
	stores []ifStore
	hist   []uint32 // shared unmasked per-ID local histories
	keyHi  []uint64
	kt     []uint64
}

// NewIFPAsSweep returns a fused grid of IF-PAs configs, one per entry
// of historyBits (each within NewIFPAs's [1,32] range), in argument
// order.
func NewIFPAsSweep(historyBits []uint) *IFPAsSweep {
	if len(historyBits) == 0 {
		panic("bp: IF-PAs sweep needs at least one config")
	}
	hmasks := make([]uint64, len(historyBits))
	stores := make([]ifStore, len(historyBits))
	for c, b := range historyBits {
		if b == 0 || b > 32 {
			panic(fmt.Sprintf("bp: IF-PAs history bits %d out of range [1,32]", b))
		}
		hmasks[c] = uint64(1)<<b - 1
		stores[c].table = newIFTable()
	}
	return &IFPAsSweep{
		bits:   append([]uint(nil), historyBits...),
		hmasks: hmasks,
		stores: stores,
		kt:     make([]uint64, sweepTile),
	}
}

// GridName implements SweepGrid.
func (g *IFPAsSweep) GridName() string {
	return fmt.Sprintf("if-pas-hist(%d configs, %d..%d bits)", len(g.bits), g.bits[0], g.bits[len(g.bits)-1])
}

// ConfigNames implements SweepGrid; names match NewIFPAs's.
func (g *IFPAsSweep) ConfigNames() []string {
	out := make([]string, len(g.bits))
	for c, b := range g.bits {
		out[c] = fmt.Sprintf("IF-PAs(%d)", b)
	}
	return out
}

// Configs implements SweepGrid.
func (g *IFPAsSweep) Configs() []Predictor {
	out := make([]Predictor, len(g.bits))
	for c, b := range g.bits {
		out[c] = NewIFPAs(b)
	}
	return out
}

// Shard implements SweepGrid: a fresh fused grid over the history
// lengths [lo, hi) (each shard owns a private register file, which is
// exact: the registers are stream-determined).
func (g *IFPAsSweep) Shard(lo, hi int) SweepGrid {
	checkShardRange(lo, hi, len(g.bits))
	return NewIFPAsSweep(g.bits[lo:hi])
}

// SweepBlock implements SweepKernel.
func (g *IFPAsSweep) SweepBlock(blk KernelBlock, correct []int32) {
	g.sweep(blk, correct, nil)
}

// sweep is SweepBlock, and with non-nil branches (only IFPAs's
// one-config kernel passes them) it also counts per branch: per tile,
// stageLocal advances the shared registers, then replayIFStores runs every
// config.
//
//bplint:hot
func (g *IFPAsSweep) sweep(blk KernelBlock, correct []int32, branches [][]int32) {
	g.keyHi = extendKeyHi(g.keyHi, blk.Addrs)
	g.hist = growColumn(g.hist, len(blk.Addrs))
	fitStores(g.stores, g.bits, blk)
	for lo := blk.Lo; lo < blk.Hi; lo += sweepTile {
		hi := min(lo+sweepTile, blk.Hi)
		tids := blk.IDs[lo:hi]
		kk := g.kt[:len(tids)]
		stageLocal(kk, blk.Taken, tids, lo, g.hist)
		reserveStores(g.stores, len(kk)) //bplint:ignore kernel-purity once per tile: the hash's amortized grow path
		replayIFStores(kk, tids, g.keyHi, g.stores, g.bits, g.hmasks, correct, branches, nil, 0)
	}
}

var (
	_ SweepKernel = (*IFGshareSweep)(nil)
	_ SweepKernel = (*IFPAsSweep)(nil)
)
