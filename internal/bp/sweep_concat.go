package bp

import "fmt"

// ConcatSweep concatenates fused grids into one grid whose config order
// is the parts in sequence. The parts are independent kernels walking
// the same block, so concatenation preserves the SweepKernel contract
// (each part adds its configs' counts into its slice of correct), and it
// is what lets a heterogeneous figure — say selective predictors, an
// IF-gshare, and a gshare — ride one fused pass per trace.
type ConcatSweep struct {
	name  string
	parts []SweepKernel
	offs  []int // offs[i] is part i's first config index; offs[len(parts)] is the total
}

// NewConcatSweep returns a fused grid over the parts' configs in
// argument order.
func NewConcatSweep(name string, parts ...SweepKernel) *ConcatSweep {
	if len(parts) == 0 {
		panic("bp: concat sweep needs at least one part")
	}
	offs := make([]int, len(parts)+1)
	for i, p := range parts {
		offs[i+1] = offs[i] + len(p.ConfigNames())
	}
	return &ConcatSweep{name: name, parts: append([]SweepKernel(nil), parts...), offs: offs}
}

// GridName implements SweepGrid.
func (g *ConcatSweep) GridName() string { return g.name }

// ConfigNames implements SweepGrid.
func (g *ConcatSweep) ConfigNames() []string {
	out := make([]string, 0, g.offs[len(g.parts)])
	for _, p := range g.parts {
		out = append(out, p.ConfigNames()...)
	}
	return out
}

// Configs implements SweepGrid.
func (g *ConcatSweep) Configs() []Predictor {
	out := make([]Predictor, 0, g.offs[len(g.parts)])
	for _, p := range g.parts {
		out = append(out, p.Configs()...)
	}
	return out
}

// SweepBlock implements SweepKernel: each part replays the block against
// its slice of the count vector. The dispatch is per part per block —
// the record-grain loops live in the parts' own (hot-annotated) kernels,
// so this shim stays off the hot-path roots.
func (g *ConcatSweep) SweepBlock(blk KernelBlock, correct []int32) {
	offs := g.offs
	for i, p := range g.parts {
		p.SweepBlock(blk, correct[offs[i]:offs[i+1]])
	}
}

// Shard implements SweepGrid: the sub-range is assembled from shards of
// the overlapped parts. A part's shard must itself be a SweepKernel (every
// fused grid's is); anything else is a programming error and panics.
func (g *ConcatSweep) Shard(lo, hi int) SweepGrid {
	checkShardRange(lo, hi, g.offs[len(g.parts)])
	var parts []SweepKernel
	for i, p := range g.parts {
		plo, phi := g.offs[i], g.offs[i+1]
		if phi <= lo || plo >= hi {
			continue
		}
		parts = append(parts, p.Shard(max(lo, plo)-plo, min(hi, phi)-plo).(SweepKernel))
	}
	if len(parts) == 1 {
		return parts[0]
	}
	return NewConcatSweep(fmt.Sprintf("%s[%d:%d)", g.name, lo, hi), parts...)
}

var _ SweepKernel = (*ConcatSweep)(nil)
