package core

import (
	"fmt"
	"math/bits"
	"slices"
	"sort"

	"branchcorr/internal/bp"
	"branchcorr/internal/trace"
)

// SelectiveConfig is one column of a fused selective-predictor grid: a
// named Selective over its own window length, ref assignment, and state
// mode. Window sweeps (Figure 4) vary Window at a fixed Assign; figure
// panels vary Assign (history size) at a fixed Window.
type SelectiveConfig struct {
	Name   string
	Window int
	Assign Assignment
	Mode   Mode
}

// SelectiveSweep is the fused grid over a set of selective-history
// configurations: one walk of the packed columns drives every config.
//
// What is shared is the history window itself. Both tagging schemes
// resolve an entry's tag from strictly more-recent entries, so the first
// n steps of a walk at the largest config window are exactly the walk a
// dedicated n-entry window would produce. The sweep therefore resolves
// tags with the oracle's columnar emitter (oracleEmitter): one walk per
// record at the largest window over a carried column window of the last
// maxWindow records, with each config reading the prefix of emissions
// its own window covers. Per dense ID the configs' refs fold into one
// union of packed ref keys (a refKeySet), and the walk is focused on the
// union's PCs, so each emission resolves once however many configs name
// it. Per config: the pattern-counter
// tables, held as dense per-ID columns so the per-record replay does no
// map access.
//
// SweepBlock is observationally identical, per config, to replaying the
// records through NewSelectiveMode(cfg...): the resolved pattern trains
// the same counter the scalar Predict/Update pair would, against the
// records that precede it in the stream — the scalar ordering (Update
// pushes after training). Blocks may be full columns with a [Lo, Hi)
// range or chunk-only columns (Lo = 0) under a growing intern table; a
// ref naming a PC not yet interned is absent until the PC appears.
type SelectiveSweep struct {
	gridName string
	cfgs     []SelectiveConfig
	bucket   []int // per config: index of its window in the emitter's windows
	em       *oracleEmitter
	col      columnWindow

	branches []selBranch            // per dense ID
	idOf     map[trace.Addr]int32   // interned PCs seen so far
	waiting  map[trace.Addr][]int32 // uninterned ref PC -> consumer IDs
	states   []State                // [config × MaxSelectiveRefs] resolution scratch
}

// selBranch is one dense ID's fused-grid state.
type selBranch struct {
	set    refKeySet       // union of the configs' interned packed ref keys
	refsOf []uint8         // [key × configs + c]: bitmask of config c's refs naming the key
	nrefs  []uint8         // per config: assigned ref count
	tables [][]bp.Counter2 // per config: pow3-sized pattern counters
}

// selSweepChunk bounds the records copied into the carried column
// window per step, so resident columns stay maxWindow + selSweepChunk
// records whatever the block size.
const selSweepChunk = 4096

// NewSelectiveSweep returns a fused grid over cfgs in argument order.
// Every config needs a positive window length and at most
// MaxSelectiveRefs refs per branch.
func NewSelectiveSweep(gridName string, cfgs []SelectiveConfig) *SelectiveSweep {
	if len(cfgs) == 0 {
		panic("core: selective sweep needs at least one config")
	}
	var windows []int
	for _, cfg := range cfgs {
		if cfg.Window <= 0 {
			panic(fmt.Sprintf("core: selective sweep config %q window length %d must be positive", cfg.Name, cfg.Window))
		}
		windows = append(windows, cfg.Window)
		for pc, refs := range cfg.Assign {
			if len(refs) > MaxSelectiveRefs {
				panic(fmt.Sprintf("core: branch 0x%x assigned %d refs, max %d",
					uint32(pc), len(refs), MaxSelectiveRefs))
			}
		}
	}
	slices.Sort(windows)
	windows = slices.Compact(windows)
	bucket := make([]int, len(cfgs))
	for c, cfg := range cfgs {
		bucket[c], _ = slices.BinarySearch(windows, cfg.Window)
	}
	maxWin := windows[len(windows)-1]
	return &SelectiveSweep{
		gridName: gridName,
		cfgs:     append([]SelectiveConfig(nil), cfgs...),
		bucket:   bucket,
		em:       newOracleEmitter(windows),
		col:      columnWindow{n: maxWin},
		idOf:     make(map[trace.Addr]int32),
		waiting:  make(map[trace.Addr][]int32),
		states:   make([]State, len(cfgs)*MaxSelectiveRefs),
	}
}

// GridName implements bp.SweepGrid.
func (g *SelectiveSweep) GridName() string { return g.gridName }

// ConfigNames implements bp.SweepGrid.
func (g *SelectiveSweep) ConfigNames() []string {
	out := make([]string, len(g.cfgs))
	for c, cfg := range g.cfgs {
		out[c] = cfg.Name
	}
	return out
}

// Configs implements bp.SweepGrid.
func (g *SelectiveSweep) Configs() []bp.Predictor {
	out := make([]bp.Predictor, len(g.cfgs))
	for c, cfg := range g.cfgs {
		out[c] = NewSelectiveMode(cfg.Name, cfg.Window, cfg.Assign, cfg.Mode)
	}
	return out
}

// Shard implements bp.SweepSharder: a fresh fused grid over the configs
// [lo, hi) (each shard owns a private window, which is exact: the window
// contents are stream-determined).
func (g *SelectiveSweep) Shard(lo, hi int) bp.SweepGrid {
	checkSelShardRange(lo, hi, len(g.cfgs))
	return NewSelectiveSweep(g.gridName, g.cfgs[lo:hi])
}

func checkSelShardRange(lo, hi, n int) {
	if lo < 0 || hi > n || lo >= hi {
		panic(fmt.Sprintf("core: sweep shard range [%d,%d) invalid for %d configs", lo, hi, n))
	}
}

// extend interns the block's new dense IDs: each gets its per-config
// ref counts and pow3-sized tables (pre-created here so the replay loop
// never allocates, with the amortized-doubling growth of the bp sweep
// columns) and its union key set. Consumers whose refs name a PC that
// only now appears re-resolve their keys.
func (g *SelectiveSweep) extend(addrs []trace.Addr) {
	old := len(g.branches)
	if len(addrs) <= old {
		return
	}
	branches := make([]selBranch, len(addrs), max(len(addrs), 2*cap(g.branches)))
	copy(branches, g.branches)
	g.branches = branches
	for id := old; id < len(addrs); id++ {
		g.idOf[addrs[id]] = int32(id)
	}
	for id := old; id < len(addrs); id++ {
		br := &g.branches[id]
		br.nrefs = make([]uint8, len(g.cfgs))
		br.tables = make([][]bp.Counter2, len(g.cfgs))
		for c, cfg := range g.cfgs {
			n := len(cfg.Assign[addrs[id]])
			br.nrefs[c] = uint8(n)
			br.tables[c] = make([]bp.Counter2, pow3[n])
		}
		g.resolveKeys(int32(id), addrs, true)
	}
	for id := old; id < len(addrs); id++ {
		for _, consumer := range g.waiting[addrs[id]] {
			g.resolveKeys(consumer, addrs, false)
		}
		delete(g.waiting, addrs[id])
	}
	g.em.growScratch(len(addrs))
}

// resolveKeys rebuilds branch id's union of packed ref keys from the PCs
// interned so far. On the first resolution (register) the branch also
// waits on every PC its refs name that is not interned yet.
func (g *SelectiveSweep) resolveKeys(id int32, addrs []trace.Addr, register bool) {
	type keyRef struct {
		key  uint64
		c, i int
	}
	var pairs []keyRef
	for c, cfg := range g.cfgs {
		for i, r := range cfg.Assign[addrs[id]] {
			rid, ok := g.idOf[r.PC]
			if !ok {
				if register && !slices.Contains(g.waiting[r.PC], id) {
					g.waiting[r.PC] = append(g.waiting[r.PC], id)
				}
				continue
			}
			if key, ok := refKeyOf(rid, r); ok {
				pairs = append(pairs, keyRef{key, c, i})
			}
		}
	}
	sort.Slice(pairs, func(a, b int) bool { return pairs[a].key < pairs[b].key })
	br := &g.branches[id]
	br.refsOf = br.refsOf[:0]
	ncfg := len(g.cfgs)
	var keys []uint64
	for i, p := range pairs {
		if i == 0 || p.key != pairs[i-1].key {
			keys = append(keys, p.key)
			for c := 0; c < ncfg; c++ {
				br.refsOf = append(br.refsOf, 0)
			}
		}
		br.refsOf[(len(keys)-1)*ncfg+p.c] |= 1 << uint(p.i)
	}
	br.set = newRefKeySet(keys)
}

// SweepBlock implements bp.SweepKernel. The block's records stream
// through the carried column window in selSweepChunk steps.
func (g *SelectiveSweep) SweepBlock(blk bp.KernelBlock, correct []int32) {
	g.extend(blk.Addrs)
	correct = correct[:len(g.cfgs)]
	for lo := blk.Lo; lo < blk.Hi; lo += selSweepChunk {
		hi := min(lo+selSweepChunk, blk.Hi)
		base := g.col.extendRange(blk.IDs, blk.Taken, blk.Back, lo, hi)
		g.em.setColumns(g.col.ids, g.col.taken, g.col.back)
		g.sweepRange(base, base+hi-lo, correct)
		g.col.retire(base + hi - lo)
	}
}

// sweepRange replays column positions [lo, hi): one emitter walk per
// record resolves every config's refs (config c reads the emissions of
// its own window's prefix), then each config trains its pattern counter.
//
//bplint:hot
func (g *SelectiveSweep) sweepRange(lo, hi int, correct []int32) {
	em := g.em
	ids := em.ids
	branches := g.branches
	cfgs := g.cfgs
	bucket := g.bucket
	ncfg := len(bucket)
	st := g.states
	for i := lo; i < hi; i++ {
		br := &branches[ids[i]]
		taken := em.taken1(i)
		for j := range st {
			st[j] = StateAbsent
		}
		if remaining := len(br.set.keys); remaining > 0 { //bplint:ignore bce-hoist br is selected per record; its key count cannot hoist above the record loop
			em.focus(&br.set)
			em.emit(i, true)
			start := 0
		walk:
			for b, end := range em.ends {
				for _, key := range em.keys[start:end] {
					ki := em.find(&br.set, key&^refKeyTakenBit)
					if ki < 0 {
						continue
					}
					s := StateNotTaken
					if key&refKeyTakenBit != 0 {
						s = StateTaken
					}
					for c := 0; c < ncfg; c++ {
						if bucket[c] < b {
							continue // the emission lies beyond config c's window
						}
						for m := br.refsOf[ki*ncfg+c]; m != 0; m &= m - 1 { //bplint:ignore bce-hoist br is selected per record; its key columns cannot hoist above the record loop
							st[c*MaxSelectiveRefs+bits.TrailingZeros8(m)] = s
						}
					}
					remaining--
					if remaining == 0 {
						break walk
					}
				}
				start = end
			}
		}
		for c := 0; c < ncfg; c++ {
			n := int(br.nrefs[c]) //bplint:ignore bce-hoist br is selected per record; its per-config columns cannot hoist above the record loop
			cst := st[c*MaxSelectiveRefs : c*MaxSelectiveRefs+n]
			idx := 0
			if cfgs[c].Mode == ModePresence {
				for k := n - 1; k >= 0; k-- {
					idx <<= 1
					if cst[k] != StateAbsent {
						idx |= 1
					}
				}
			} else {
				for k := n - 1; k >= 0; k-- {
					idx = idx*NumStates + int(cst[k])
				}
			}
			tbl := br.tables[c] //bplint:ignore bce-hoist br is selected per record; its per-config tables cannot hoist above the record loop
			cnt := tbl[idx]
			if cnt.Taken() == taken {
				correct[c]++
			}
			tbl[idx] = cnt.Next(taken)
		}
	}
}

var (
	_ bp.SweepKernel  = (*SelectiveSweep)(nil)
	_ bp.SweepSharder = (*SelectiveSweep)(nil)
)
