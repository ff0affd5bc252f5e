package bp

import (
	"fmt"
	"slices"

	"branchcorr/internal/trace"
)

// This file is the fused-sweep half of the columnar execution contract.
// The paper's figures are parameter sweeps — history length, window
// size, table geometry — and adjacent configurations of one predictor
// family differ only in index-hash width and table size, so a whole grid
// can share one walk over the packed columns: the per-record work that
// dominates a single-config kernel (ID load, outcome bit extract,
// history shift, per-branch state fetch) is paid once per record instead
// of once per record per config. A SweepKernel updates every config of
// its grid from one KernelBlock; sim.SimulateSweep dispatches to it and
// falls back to per-config simulation for grids without a fused kernel.
//
// What is shared vs per-config, per family:
//
//   - GshareSweep: one unmasked global history register serves every
//     history length, because gshare's index (pcx ^ h) & mask_c equals
//     (pcx ^ (h & mask_c)) & mask_c — each config's masked register is
//     the shared register's low bits. Per config: only the PHT.
//   - BimodalSweep: the dense-ID walk and the per-ID address bits are
//     shared; per config only the table size differs.
//
// GAs and PAs have no grid: no figure sweeps their geometry, and their
// kernel.go kernels serve every run. The interference-free grids are in
// sweep_if.go; their staged replay is also the IF kernels' one loop. The
// hybrid grid (sweep_hybrid.go) runs the chooser kernel per config over
// one shared bimodal hit column. Grids count totals only: the one grid
// with a per-branch form (BranchSweepKernel) is core.SelectiveSweep.
//
// Execution is tiled to keep the sharing from fighting the cache: each
// SweepBlock call walks its range in fixed-size tiles, a shared pass
// staging one packed key|outcome word per record into grid-owned
// scratch (this is where the shared history state advances; the key is
// masked to the widest config, whose mask covers every narrower one),
// and then config replays running the L1-resident tile against their own
// power-of-2 tables. Gshare and bimodal replay a tile through one loop,
// replayTables, two configs per pass so their table-access dependency
// chains overlap. Replaying from one packed word keeps the
// per-config work at one sequential load amortized across the pair
// plus one table read-modify-write: slot mask, counter load, one
// sweepStep lookup yielding both the trained counter and the
// correctness bit, counter store, register-resident count. Per-config
// replay of a tile is sequential in record order and configs share no
// counter state, so results are bit-identical to per-record
// interleaving.
//
// The only cached derived column (per-ID address bits) is extended when
// the intern table grows, and the tile scratch is allocated once at
// construction, so steady-state blocks allocate nothing
// (sweep_alloc_test.go pins this at zero). A grid instance is therefore
// bound to the single trace or block stream it is simulating — exactly
// like its trained counter state.

// SweepGrid is a set of same-family predictor configurations simulated
// together over one trace. ConfigNames and Configs use the same grid
// order; Configs returns one independent scalar predictor per config —
// the executable specification a fused kernel is pinned against by the
// differential tests, and the engine sim.SimulateSweep drives when the
// grid has no fused kernel. Fused grids construct the predictors fresh
// (initial state, not a view of the fused state), so a run uses either
// the fused kernel or the returned configs, never both.
//
// Every grid splits into independent contiguous sub-grids, the unit of
// config-sharded parallel sweeps: configs of one grid share no counter
// state, so per-config correct counts compose exactly — running
// Shard(0,k) and Shard(k,n) over the same record stream produces, config
// for config, the counts the whole grid would. Shard returns the
// sub-grid covering configs [lo, hi) in grid order (0 <= lo < hi <=
// config count, panicking otherwise). A fused grid's shard is a freshly
// initialized fused grid over the parameter subset — shard a grid before
// replaying any records through it. PredictorGrid is the exception: its
// configs ARE the held instances, so its shards are views sharing those
// instances, and composition holds because shard ranges are disjoint.
type SweepGrid interface {
	// GridName names the grid (family and span) for results and metrics.
	GridName() string
	// ConfigNames returns one label per config, in grid order.
	ConfigNames() []string
	// Configs returns the per-config independent predictors, in grid
	// order.
	Configs() []Predictor
	// Shard returns the sub-grid over configs [lo, hi).
	Shard(lo, hi int) SweepGrid
}

// SweepKernel is a SweepGrid with a fused columnar kernel: one call
// replays a block through every config of the grid at once. SweepBlock
// must be observationally identical, per config, to replaying the block
// through that config's independent predictor: it adds config c's
// correct-prediction count for the range to correct[c] (len(correct)
// must be at least the config count; the kernel only ever adds), and
// chunked calls over adjacent ranges are equivalent to one full-range
// call.
type SweepKernel interface {
	SweepGrid
	SweepBlock(blk KernelBlock, correct []int32)
}

// BranchSweepKernel is a SweepKernel that can also attribute each
// config's correct predictions to static branches: the per-branch output
// sim.SimulateSweep produces under Options.PerBranch. SweepBlockBranches
// is SweepBlock plus, for every record of the range config c predicts
// correctly, one added to branches[c][id], id being the record's dense
// branch ID (each branches[c] must cover len(blk.Addrs)). Only the
// selective grid (core.SelectiveSweep) has a per-branch form; a
// per-branch request on any other grid runs per config.
type BranchSweepKernel interface {
	SweepKernel
	SweepBlockBranches(blk KernelBlock, correct []int32, branches [][]int32)
}

// CountsBranches reports whether g is a fused grid that can count per
// branch (a BranchSweepKernel).
func CountsBranches(g SweepGrid) bool {
	_, ok := g.(BranchSweepKernel)
	return ok
}

// checkShardRange validates a Shard call against the config count.
func checkShardRange(lo, hi, n int) {
	if lo < 0 || hi > n || lo >= hi {
		panic(fmt.Sprintf("bp: sweep shard range [%d,%d) invalid for %d configs", lo, hi, n))
	}
}

// sweepTile is the tile length in records: big enough to amortize the
// per-tile config-loop setup, small enough that the packed key|outcome
// scratch (4 bytes per record) stays L1-resident under the config
// replays' table traffic.
const sweepTile = 2048

// sweepStep folds one counter transition and its correctness bit into a
// single lookup: sweepStep[cnt<<1|t] = counterNext[t][cnt]<<1 | ok,
// where ok is 1 when the counter's MSB agreed with the outcome t. The
// table is sized 256 so an untruncated uint8 index (counter<<1|t) needs
// no bounds check; only indices 0..7 are ever hit because stored
// counters stay in 0..3.
var sweepStep = func() [256]uint8 {
	var lut [256]uint8
	for cnt := uint8(0); cnt < 4; cnt++ {
		for t := uint8(0); t < 2; t++ {
			ok := cnt>>1 ^ t ^ 1
			lut[cnt<<1|t] = uint8(counterNext[t][cnt])<<1 | ok
		}
	}
	return lut
}()

// extendPcx grows a cached per-ID word-aligned-address column to cover
// addrs, computing entries only for newly interned IDs. The allocation
// sits outside every loop and is amortized (growColumn), so
// steady-state blocks of a stream reuse the column and allocate nothing.
func extendPcx(pcx []uint32, addrs []trace.Addr) []uint32 {
	old := len(pcx)
	pcx = growColumn(pcx, len(addrs))
	for id := old; id < len(pcx); id++ {
		pcx[id] = uint32(addrs[id]) >> 2
	}
	return pcx
}

// growColumn extends a per-ID column to n entries as a stream's intern
// table grows: within capacity it reslices, beyond it slices.Grow
// reallocates with append's amortized growth. Entries past the old
// length are zero, because columns never shrink.
func growColumn[E any](s []E, n int) []E {
	if n <= len(s) {
		return s
	}
	return slices.Grow(s, n-len(s))[:n]
}

// GshareSweep is the fused gshare grid: one config per history length,
// all sharing one unmasked global history register.
type GshareSweep struct {
	bits    []uint
	phts    [][]Counter2 // one power-of-2 PHT per config
	kmax    uint32       // widest config's index mask
	history uint32       // shared unmasked global history
	pcx     []uint32     // cached per-ID address bits
	kt      []uint32     // tile staging: key<<1 | outcome, key masked to kmax
}

// NewGshareSweep returns a fused grid of gshare configs, one per entry
// of historyBits (each within NewGshare's [1,26] range), in argument
// order.
func NewGshareSweep(historyBits []uint) *GshareSweep {
	if len(historyBits) == 0 {
		panic("bp: gshare sweep needs at least one config")
	}
	phts := make([][]Counter2, len(historyBits))
	kmax := uint32(0)
	for c, b := range historyBits {
		if b == 0 || b > 26 {
			panic(fmt.Sprintf("bp: gshare history bits %d out of range [1,26]", b))
		}
		phts[c] = make([]Counter2, 1<<b)
		kmax |= 1<<b - 1
	}
	return &GshareSweep{
		bits: append([]uint(nil), historyBits...),
		phts: phts,
		kmax: kmax,
		kt:   make([]uint32, sweepTile),
	}
}

// GridName implements SweepGrid.
func (g *GshareSweep) GridName() string {
	return fmt.Sprintf("gshare-hist(%d configs, %d..%d bits)", len(g.bits), g.bits[0], g.bits[len(g.bits)-1])
}

// ConfigNames implements SweepGrid; names match NewGshare's.
func (g *GshareSweep) ConfigNames() []string {
	out := make([]string, len(g.bits))
	for c, b := range g.bits {
		out[c] = fmt.Sprintf("gshare(%d)", b)
	}
	return out
}

// Configs implements SweepGrid.
func (g *GshareSweep) Configs() []Predictor {
	out := make([]Predictor, len(g.bits))
	for c, b := range g.bits {
		out[c] = NewGshare(b)
	}
	return out
}

// Shard implements SweepGrid: a fresh fused grid over the history
// lengths [lo, hi).
func (g *GshareSweep) Shard(lo, hi int) SweepGrid {
	checkShardRange(lo, hi, len(g.bits))
	return NewGshareSweep(g.bits[lo:hi])
}

// SweepBlock implements SweepKernel. The shared pass pays the
// per-record work once — ID load, outcome extract, key pcx^h, history
// shift — and each config pair's replay of the staged tile is the
// single-config kernel loop minus exactly that work.
//
//bplint:hot
func (g *GshareSweep) SweepBlock(blk KernelBlock, correct []int32) {
	g.pcx = extendPcx(g.pcx, blk.Addrs)
	pcx := g.pcx
	phts := g.phts
	correct = correct[:len(phts)]
	kmax := g.kmax
	taken := blk.Taken
	ids := blk.IDs
	kt := g.kt
	h := g.history
	for lo := blk.Lo; lo < blk.Hi; lo += sweepTile {
		hi := min(lo+sweepTile, blk.Hi)
		kk := kt[:hi-lo]
		j := lo
		for i := range kk {
			t := taken[j>>6] >> (uint(j) & 63) & 1
			kk[i] = ((pcx[ids[j]]^h)&kmax)<<1 | uint32(t)
			h = h<<1 | uint32(t)
			j++
		}
		replayTables(kk, phts, correct)
	}
	g.history = h
}

// replayTables replays every config's power-of-2 table over a staged
// key|outcome tile, adding config c's correct predictions to correct[c].
// Configs run two per pass so their table-access dependency chains
// overlap.
//
//bplint:hot
func replayTables(kk []uint32, tbls [][]Counter2, correct []int32) {
	correct = correct[:len(tbls)]
	c := 0
	for ; c+2 <= len(tbls); c += 2 {
		t0, t1 := tbls[c], tbls[c+1]
		m0 := uint32(len(t0) - 1)
		m1 := uint32(len(t1) - 1)
		var n0, n1 int32
		for _, v := range kk {
			t := Counter2(v & 1)
			k := v >> 1
			s0 := k & m0
			x0 := sweepStep[t0[s0]<<1|t]
			n0 += int32(x0 & 1)
			t0[s0] = Counter2(x0 >> 1)
			s1 := k & m1
			x1 := sweepStep[t1[s1]<<1|t]
			n1 += int32(x1 & 1)
			t1[s1] = Counter2(x1 >> 1)
		}
		correct[c] += n0
		correct[c+1] += n1
	}
	for ; c < len(tbls); c++ {
		tbl := tbls[c]
		m := uint32(len(tbl) - 1)
		n := int32(0)
		for _, v := range kk {
			t := Counter2(v & 1)
			s := (v >> 1) & m
			x := sweepStep[tbl[s]<<1|t]
			n += int32(x & 1)
			tbl[s] = Counter2(x >> 1)
		}
		correct[c] += n
	}
}

// BimodalSweep is the fused bimodal grid: one config per table size,
// sharing the dense-ID walk and per-ID address bits.
type BimodalSweep struct {
	bits []uint
	tbls [][]Counter2
	kmax uint32
	pcx  []uint32
	kt   []uint32 // tile staging: key<<1 | outcome, key masked to kmax
}

// NewBimodalSweep returns a fused grid of bimodal configs, one per
// entry of tableBits (each within NewBimodal's [1,30] range), in
// argument order.
func NewBimodalSweep(tableBits []uint) *BimodalSweep {
	if len(tableBits) == 0 {
		panic("bp: bimodal sweep needs at least one config")
	}
	tbls := make([][]Counter2, len(tableBits))
	kmax := uint32(0)
	for c, b := range tableBits {
		if b == 0 || b > 30 {
			panic(fmt.Sprintf("bp: bimodal table bits %d out of range [1,30]", b))
		}
		tbls[c] = make([]Counter2, 1<<b)
		kmax |= 1<<b - 1
	}
	return &BimodalSweep{
		bits: append([]uint(nil), tableBits...),
		tbls: tbls,
		kmax: kmax,
		kt:   make([]uint32, sweepTile),
	}
}

// GridName implements SweepGrid.
func (g *BimodalSweep) GridName() string {
	return fmt.Sprintf("bimodal-size(%d configs, %d..%d bits)", len(g.bits), g.bits[0], g.bits[len(g.bits)-1])
}

// ConfigNames implements SweepGrid; names match NewBimodal's.
func (g *BimodalSweep) ConfigNames() []string {
	out := make([]string, len(g.bits))
	for c, b := range g.bits {
		out[c] = fmt.Sprintf("bimodal(%d)", b)
	}
	return out
}

// Configs implements SweepGrid.
func (g *BimodalSweep) Configs() []Predictor {
	out := make([]Predictor, len(g.bits))
	for c, b := range g.bits {
		out[c] = NewBimodal(b)
	}
	return out
}

// Shard implements SweepGrid: a fresh fused grid over the table sizes
// [lo, hi).
func (g *BimodalSweep) Shard(lo, hi int) SweepGrid {
	checkShardRange(lo, hi, len(g.bits))
	return NewBimodalSweep(g.bits[lo:hi])
}

// SweepBlock implements SweepKernel.
//
//bplint:hot
func (g *BimodalSweep) SweepBlock(blk KernelBlock, correct []int32) {
	g.pcx = extendPcx(g.pcx, blk.Addrs)
	pcx := g.pcx
	tbls := g.tbls
	correct = correct[:len(tbls)]
	kmax := g.kmax
	taken := blk.Taken
	ids := blk.IDs
	kt := g.kt
	for lo := blk.Lo; lo < blk.Hi; lo += sweepTile {
		hi := min(lo+sweepTile, blk.Hi)
		kk := kt[:hi-lo]
		j := lo
		for i := range kk {
			t := taken[j>>6] >> (uint(j) & 63) & 1
			kk[i] = (pcx[ids[j]]&kmax)<<1 | uint32(t)
			j++
		}
		replayTables(kk, tbls, correct)
	}
}

// PredictorGrid adapts arbitrary predictor instances to the SweepGrid
// contract. It has no fused kernel: sim.SimulateSweep drives the held
// instances through its per-config fallback engine — still one logical
// sweep call (and, streamed, one pass over the blocks) for a whole
// figure, which is how exhibits over non-kernel predictors (Figure 5's
// selective-history windows) join the fused-sweep pipeline.
type PredictorGrid struct {
	name  string
	preds []Predictor
}

// NewPredictorGrid wraps the given predictor instances (at least one)
// as a grid. The instances themselves carry the simulation state:
// Configs returns them, not copies.
func NewPredictorGrid(name string, preds []Predictor) *PredictorGrid {
	if len(preds) == 0 {
		panic("bp: predictor grid needs at least one config")
	}
	return &PredictorGrid{name: name, preds: append([]Predictor(nil), preds...)}
}

// GridName implements SweepGrid.
func (g *PredictorGrid) GridName() string { return g.name }

// ConfigNames implements SweepGrid: the predictors' own names.
func (g *PredictorGrid) ConfigNames() []string {
	out := make([]string, len(g.preds))
	for c, p := range g.preds {
		out[c] = p.Name()
	}
	return out
}

// Configs implements SweepGrid.
func (g *PredictorGrid) Configs() []Predictor { return g.preds }

// Shard implements SweepGrid as a view over the held instances
// [lo, hi) — NOT a fresh copy, because the instances are the configs
// (see NewPredictorGrid). Sharded execution stays exact as long as each
// instance is replayed by exactly one shard, which disjoint ranges
// guarantee.
func (g *PredictorGrid) Shard(lo, hi int) SweepGrid {
	checkShardRange(lo, hi, len(g.preds))
	return &PredictorGrid{
		name:  fmt.Sprintf("%s[%d:%d)", g.name, lo, hi),
		preds: g.preds[lo:hi:hi],
	}
}

var (
	_ SweepKernel = (*GshareSweep)(nil)
	_ SweepKernel = (*BimodalSweep)(nil)
	_ SweepGrid   = (*PredictorGrid)(nil)
)
