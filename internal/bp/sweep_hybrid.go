package bp

import "fmt"

// HybridSweep is the fused McFarling-hybrid grid: gshare(gb) + bimodal
// combined under a per-config chooser, one config per gshare history
// length at a fixed bimodal table size and chooser size.
//
// It runs the combining predictors' chooser kernel (kernel_chooser.go);
// what it fuses is the bimodal component. That component always trains
// (Hybrid.Update updates both components unconditionally), so its table
// is stream-determined and one copy serves every config: per block,
// bimodalLoop replays it once into a hit column, and each config runs
// one chooserLoop with a = its gshare's gshareLoop and b = a
// storedColumn over that shared column. Per config: the gshare
// predictor and the chooser table — the chooser's training depends on
// the config's gshare hits, so it cannot be shared even at a fixed size.
//
// The loops are built once at construction and re-pointed at each
// block, and all of them read one cached per-ID address column (pc>>2,
// unmasked: bimodalLoop, gshareLoop and the chooser's cidx each mask it
// to their own table), so steady-state blocks allocate nothing.
type HybridSweep struct {
	gbits       []uint
	bimodalBits uint
	chooserBits uint
	bimodal     bimodalLoop   // the shared bimodal component's loop
	gshares     []gshareLoop  // per config: the gshare component's loop
	choosers    []chooserLoop // per config: a = &gshares[c], b = &column
	column      storedColumn  // the shared bimodal hit column (bit i = record i)
	tiles       chooserTiles  // every chooser's tile staging and per-ID scratch
	pcx         []uint32      // cached per-ID address bits
}

// NewHybridSweep returns a fused grid of hybrid(gshare(b), bimodal,
// chooser) configs, one per entry of gshareBits (each within NewGshare's
// [1,26] range), in argument order, sharing one bimodal component of
// 2^bimodalBits counters and per-config choosers of 2^chooserBits
// counters.
func NewHybridSweep(gshareBits []uint, bimodalBits, chooserBits uint) *HybridSweep {
	if len(gshareBits) == 0 {
		panic("bp: hybrid sweep needs at least one config")
	}
	if bimodalBits == 0 || bimodalBits > 30 {
		panic(fmt.Sprintf("bp: bimodal table bits %d out of range [1,30]", bimodalBits))
	}
	if chooserBits == 0 || chooserBits > 26 {
		panic(fmt.Sprintf("bp: hybrid chooser bits %d out of range [1,26]", chooserBits))
	}
	g := &HybridSweep{
		gbits:       append([]uint(nil), gshareBits...),
		bimodalBits: bimodalBits,
		chooserBits: chooserBits,
		bimodal:     bimodalLoop{p: NewBimodal(bimodalBits)},
		gshares:     make([]gshareLoop, len(gshareBits)),
		choosers:    make([]chooserLoop, len(gshareBits)),
	}
	for c, b := range gshareBits {
		ch := make([]Counter2, 1<<chooserBits)
		for i := range ch {
			ch[i] = WeaklyNotTaken // NewHybrid's neutral chooser start
		}
		g.gshares[c].p = NewGshare(b) // panics on bits outside [1,26]
		g.choosers[c] = chooserLoop{a: &g.gshares[c], b: &g.column, chooser: ch, tiles: &g.tiles}
	}
	return g
}

// GridName implements SweepGrid.
func (g *HybridSweep) GridName() string {
	return fmt.Sprintf("hybrid-gshare(%d configs, %d..%d bits, bimodal %d, chooser %d)",
		len(g.gbits), g.gbits[0], g.gbits[len(g.gbits)-1], g.bimodalBits, g.chooserBits)
}

// ConfigNames implements SweepGrid; names match Hybrid.Name over the
// component names.
func (g *HybridSweep) ConfigNames() []string {
	out := make([]string, len(g.gbits))
	for c, b := range g.gbits {
		out[c] = fmt.Sprintf("hybrid(gshare(%d),bimodal(%d),%d)", b, g.bimodalBits, g.chooserBits)
	}
	return out
}

// Configs implements SweepGrid.
func (g *HybridSweep) Configs() []Predictor {
	out := make([]Predictor, len(g.gbits))
	for c, b := range g.gbits {
		out[c] = NewHybrid(NewGshare(b), NewBimodal(g.bimodalBits), g.chooserBits)
	}
	return out
}

// Shard implements SweepGrid: a fresh fused grid over the gshare
// history lengths [lo, hi) (each shard owns a private bimodal table,
// which is exact: the bimodal component is stream-determined).
func (g *HybridSweep) Shard(lo, hi int) SweepGrid {
	checkShardRange(lo, hi, len(g.gbits))
	return NewHybridSweep(g.gbits[lo:hi], g.bimodalBits, g.chooserBits)
}

// SweepBlock implements SweepKernel: the shared bimodal replay fills
// the block's hit column, then each config's chooser loop runs over its
// gshare loop and that column. The per-ID counts every loop adds to are
// the tiles' scratch, which nobody reads.
func (g *HybridSweep) SweepBlock(blk KernelBlock, correct []int32) {
	g.pcx = extendPcx(g.pcx, blk.Addrs)
	g.tiles.scratch = growColumn(g.tiles.scratch, len(blk.Addrs))
	g.column.hits = growColumn(g.column.hits, (blk.Hi-1)>>6+1)
	scratch := g.tiles.scratch
	g.bimodal.blk, g.bimodal.slot = blk, g.pcx
	g.bimodal.run(blk.Lo, blk.Hi, scratch, g.column.hits[blk.Lo>>6:])
	correct = correct[:len(g.choosers)]
	for c := range g.choosers {
		g.gshares[c].blk, g.gshares[c].pcx = blk, g.pcx
		ch := &g.choosers[c]
		ch.blk, ch.cidx = blk, g.pcx
		correct[c] += int32(ch.run(blk.Lo, blk.Hi, scratch, nil))
	}
}

var _ SweepKernel = (*HybridSweep)(nil)
