package bp

import (
	"fmt"

	"branchcorr/internal/trace"
)

// This file extends the fused-sweep contract (sweep.go) to the
// interference-free predictor variants. IF predictors keep unbounded
// per-(address, history) counter maps, so their replays cannot be the
// dense power-of-2 table loops of the other families — but the sharing
// argument is identical:
//
//   - IFGshareSweep: one unmasked global history register serves every
//     history length, because a config's counter key is
//     addr<<32 | (h & mask_c) and each config's masked register equals
//     the shared register's low bits. Per config: only the counter map.
//   - IFPAsSweep: one dense per-ID table of unmasked local history
//     registers serves every length. Distinct addresses get distinct
//     dense IDs (the packed view's interning is injective), so unlike
//     the real PAs there is no aliasing to preserve and the register
//     file is exact for every config simultaneously.
//
// Both grids run one staged replay: a shared pass stages each tile's
// records as 64-bit words (unmasked 32-bit history plus the outcome
// bit; stageGlobal or stageLocal), and every config replays the tile
// through its counter map (replayMap, or replayMapBranches when counting
// per branch); the per-ID key prefix addr<<32 is a cached column like
// pcx. The IFGshare and IFPAs kernels (kernel.go) are one-config grids
// of this replay over the predictor's own map and registers.
// Steady-state blocks allocate only what the semantics require — map
// growth for never-seen (address, history) pairs — the staging scratch
// and derived columns are allocated once and reused, which
// sweep_alloc_test.go pins with a bounded (amortized) gate.

// extendKeyHi grows a cached per-ID map-key-prefix column (addr<<32) to
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

// replayMaps replays a staged tile whose records have dense IDs tids
// through every config's counter map (config c keyed by its history
// mask hmasks[c]), adding config c's correct predictions to correct[c]
// and, when branches is non-nil, to branches[c][id].
//
//bplint:hot
func replayMaps(kk []uint64, tids []int32, keyHi []uint64, counters []map[uint64]Counter2, hmasks []uint64, correct []int32, branches [][]int32) {
	correct = correct[:len(counters)]
	for c, tbl := range counters {
		if branches != nil {
			correct[c] += replayMapBranches(kk, tids, keyHi, tbl, hmasks[c], branches[c]) //bplint:ignore kernel-purity interference-free tables are maps by design: unbounded per-(address,history) state has no dense index
			continue
		}
		correct[c] += replayMap(kk, tids, keyHi, tbl, hmasks[c]) //bplint:ignore kernel-purity interference-free tables are maps by design: unbounded per-(address,history) state has no dense index
	}
}

// replayMap replays one interference-free config's counter map over a
// staged history|outcome tile whose records have dense IDs tids and
// returns its correct predictions.
//
//bplint:hot
func replayMap(kk []uint64, tids []int32, keyHi []uint64, tbl map[uint64]Counter2, m uint64) int32 {
	tids = tids[:len(kk)]
	n := int32(0)
	for i, v := range kk {
		t := Counter2(v & 1)
		k := keyHi[tids[i]] | (v>>1)&m
		cnt := tbl[k] //bplint:ignore kernel-purity interference-free tables are maps by design: unbounded per-(address,history) state has no dense index
		x := sweepStep[cnt<<1|t]
		n += int32(x & 1)
		tbl[k] = Counter2(x >> 1) //bplint:ignore kernel-purity interference-free tables are maps by design: unbounded per-(address,history) state has no dense index
	}
	return n
}

// replayMapBranches is replayMap that also adds each correct prediction
// to perID[id].
//
//bplint:hot
func replayMapBranches(kk []uint64, tids []int32, keyHi []uint64, tbl map[uint64]Counter2, m uint64, perID []int32) int32 {
	tids = tids[:len(kk)]
	n := int32(0)
	for i, v := range kk {
		t := Counter2(v & 1)
		id := tids[i]
		k := keyHi[id] | (v>>1)&m
		cnt := tbl[k] //bplint:ignore kernel-purity interference-free tables are maps by design: unbounded per-(address,history) state has no dense index
		x := sweepStep[cnt<<1|t]
		ok := int32(x & 1)
		n += ok
		perID[id] += ok
		tbl[k] = Counter2(x >> 1) //bplint:ignore kernel-purity interference-free tables are maps by design: unbounded per-(address,history) state has no dense index
	}
	return n
}

// IFGshareSweep is the fused interference-free gshare grid: one config
// per history length, all sharing one unmasked global history register;
// per config only the counter map.
type IFGshareSweep struct {
	bits     []uint
	hmasks   []uint64 // per-config history mask (widened for the key or)
	counters []map[uint64]Counter2
	history  uint32 // shared unmasked global history
	keyHi    []uint64
	kt       []uint64 // tile staging: history<<1 | outcome
}

// NewIFGshareSweep returns a fused grid of IF-gshare configs, one per
// entry of historyBits (each within NewIFGshare's [1,32] range), in
// argument order.
func NewIFGshareSweep(historyBits []uint) *IFGshareSweep {
	if len(historyBits) == 0 {
		panic("bp: IF-gshare sweep needs at least one config")
	}
	hmasks := make([]uint64, len(historyBits))
	counters := make([]map[uint64]Counter2, len(historyBits))
	for c, b := range historyBits {
		if b == 0 || b > 32 {
			panic(fmt.Sprintf("bp: IF-gshare history bits %d out of range [1,32]", b))
		}
		hmasks[c] = uint64(1)<<b - 1
		counters[c] = make(map[uint64]Counter2)
	}
	return &IFGshareSweep{
		bits:     append([]uint(nil), historyBits...),
		hmasks:   hmasks,
		counters: counters,
		kt:       make([]uint64, sweepTile),
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
	g.sweep(blk, correct, nil)
}

// SweepBlockBranches implements BranchSweepKernel.
func (g *IFGshareSweep) SweepBlockBranches(blk KernelBlock, correct []int32, branches [][]int32) {
	g.sweep(blk, correct, branches)
}

// sweep is SweepBlock, and with non-nil branches SweepBlockBranches: per
// tile, stageGlobal advances the shared register, then replayMaps runs
// every config.
//
//bplint:hot
func (g *IFGshareSweep) sweep(blk KernelBlock, correct []int32, branches [][]int32) {
	g.keyHi = extendKeyHi(g.keyHi, blk.Addrs)
	h := g.history
	for lo := blk.Lo; lo < blk.Hi; lo += sweepTile {
		hi := min(lo+sweepTile, blk.Hi)
		kk := g.kt[:hi-lo]
		h = stageGlobal(kk, blk.Taken, lo, h)
		replayMaps(kk, blk.IDs[lo:hi], g.keyHi, g.counters, g.hmasks, correct, branches) //bplint:ignore kernel-purity interference-free tables are maps by design: unbounded per-(address,history) state has no dense index
	}
	g.history = h
}

// IFPAsSweep is the fused interference-free PAs grid: one config per
// local history length, all sharing one dense per-ID file of unmasked
// history registers; per config only the counter map.
type IFPAsSweep struct {
	bits     []uint
	hmasks   []uint64
	counters []map[uint64]Counter2
	hist     []uint32 // shared unmasked per-ID local histories
	keyHi    []uint64
	kt       []uint64
}

// NewIFPAsSweep returns a fused grid of IF-PAs configs, one per entry
// of historyBits (each within NewIFPAs's [1,32] range), in argument
// order.
func NewIFPAsSweep(historyBits []uint) *IFPAsSweep {
	if len(historyBits) == 0 {
		panic("bp: IF-PAs sweep needs at least one config")
	}
	hmasks := make([]uint64, len(historyBits))
	counters := make([]map[uint64]Counter2, len(historyBits))
	for c, b := range historyBits {
		if b == 0 || b > 32 {
			panic(fmt.Sprintf("bp: IF-PAs history bits %d out of range [1,32]", b))
		}
		hmasks[c] = uint64(1)<<b - 1
		counters[c] = make(map[uint64]Counter2)
	}
	return &IFPAsSweep{
		bits:     append([]uint(nil), historyBits...),
		hmasks:   hmasks,
		counters: counters,
		kt:       make([]uint64, sweepTile),
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
// stageLocal advances the shared registers, then replayMaps runs every
// config.
//
//bplint:hot
func (g *IFPAsSweep) sweep(blk KernelBlock, correct []int32, branches [][]int32) {
	g.keyHi = extendKeyHi(g.keyHi, blk.Addrs)
	g.hist = growColumn(g.hist, len(blk.Addrs))
	for lo := blk.Lo; lo < blk.Hi; lo += sweepTile {
		hi := min(lo+sweepTile, blk.Hi)
		tids := blk.IDs[lo:hi]
		kk := g.kt[:len(tids)]
		stageLocal(kk, blk.Taken, tids, lo, g.hist)
		replayMaps(kk, tids, g.keyHi, g.counters, g.hmasks, correct, branches) //bplint:ignore kernel-purity interference-free tables are maps by design: unbounded per-(address,history) state has no dense index
	}
}

var (
	_ BranchSweepKernel = (*IFGshareSweep)(nil)
	_ SweepKernel       = (*IFPAsSweep)(nil)
)
