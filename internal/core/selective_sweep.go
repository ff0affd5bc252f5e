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
// mode. Window sweeps (Figure 5) vary Window with each window's own
// Assign; history-size comparisons (Figure 4) vary Assign at a fixed
// Window.
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
// tags with the oracle's columnar emitter (oracleEmitter) at the largest
// window over the block's full columns, with each config reading the
// prefix of emissions its own window covers. Per dense ID the configs'
// refs fold into one union of packed ref keys (a refKeySet), and the
// walk is focused on the union's PCs, so each emission resolves once
// however many configs name it.
//
// The walk runs once per distinct path signature, not once per record:
// a record's resolved pattern-table indices depend only on its branch
// and the maxWindow entries before it, so a block-scoped path-signature
// memo (pathmemo.go) caches each signature's per-config indices at its
// first record and later records with that signature reuse them. The
// counter train/predict step still runs for every record, in order.
// Per config: the pattern-counter tables, held as dense per-ID columns
// so the per-record replay does no map access.
//
// SweepBlock is observationally identical, per config, to replaying the
// records through NewSelectiveMode(cfg...): the resolved pattern trains
// the same counter the scalar Predict/Update pair would, against the
// records that precede it in the stream — the scalar ordering (Update
// pushes after training). Every block must carry the trace's full
// columns, with [Lo, Hi) the range to replay, so each record's look-back
// reads the records before Lo in place; and every block must carry the
// trace's complete intern table, the same on every call, which the
// first call interns. sim.SimulateSweep hands over the whole trace as
// one such block. The memo is scoped to one SweepBlock call.
type SelectiveSweep struct {
	gridName string
	cfgs     []SelectiveConfig
	bucket   []int // per config: index of its window in the emitter's windows
	em       *oracleEmitter

	branches []selBranch // per dense ID, nil until the first block
	states   []State     // [config × MaxSelectiveRefs] resolution scratch

	memo pathMemo // the current block's path-signature classes
	pats []uint8  // [class × config]: the class's pattern-table index per config
	pat  []uint8  // per config: an unclassified record's pattern-table index
}

// selBranch is one dense ID's fused-grid state.
type selBranch struct {
	set    refKeySet       // union of the configs' interned packed ref keys
	refsOf []uint8         // [key × configs + c]: bitmask of config c's refs naming the key
	nrefs  []uint8         // per config: assigned ref count
	tables [][]bp.Counter2 // per config: pow3-sized pattern counters
}

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
	return &SelectiveSweep{
		gridName: gridName,
		cfgs:     append([]SelectiveConfig(nil), cfgs...),
		bucket:   bucket,
		em:       newOracleEmitter(windows),
		states:   make([]State, len(cfgs)*MaxSelectiveRefs),
		pat:      make([]uint8, len(cfgs)),
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

// Shard implements bp.SweepGrid: a fresh fused grid over the configs
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

// intern sets up every dense ID of the trace's intern table on the
// first block: each gets its per-config ref counts and pow3-sized tables
// (pre-created here so the replay loop never allocates) and its union
// key set. Later blocks must carry the same table.
func (g *SelectiveSweep) intern(addrs []trace.Addr) {
	if g.branches != nil {
		if len(addrs) != len(g.branches) {
			panic(fmt.Sprintf("core: selective sweep block carries %d branches, first block %d", len(addrs), len(g.branches)))
		}
		return
	}
	idOf := make(map[trace.Addr]int32, len(addrs))
	for id, a := range addrs {
		idOf[a] = int32(id)
	}
	g.branches = make([]selBranch, len(addrs))
	for id, a := range addrs {
		br := &g.branches[id]
		br.nrefs = make([]uint8, len(g.cfgs))
		br.tables = make([][]bp.Counter2, len(g.cfgs))
		for c, cfg := range g.cfgs {
			n := len(cfg.Assign[a])
			br.nrefs[c] = uint8(n)
			br.tables[c] = make([]bp.Counter2, pow3[n])
		}
		g.resolveKeys(br, a, idOf)
	}
	g.em.growScratch(len(addrs))
}

// resolveKeys builds the union of packed ref keys of br, the branch at
// pc; a ref naming a PC absent from the trace is never resolved.
func (g *SelectiveSweep) resolveKeys(br *selBranch, pc trace.Addr, idOf map[trace.Addr]int32) {
	type keyRef struct {
		key  uint64
		c, i int
	}
	var pairs []keyRef
	for c, cfg := range g.cfgs {
		for i, r := range cfg.Assign[pc] {
			rid, ok := idOf[r.PC]
			if !ok {
				continue
			}
			if key, ok := refKeyOf(rid, r); ok {
				pairs = append(pairs, keyRef{key, c, i})
			}
		}
	}
	sort.Slice(pairs, func(a, b int) bool { return pairs[a].key < pairs[b].key })
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

// SweepBlock implements bp.SweepKernel. The block's records [Lo, Hi)
// replay over its full columns, classified by a path-signature memo
// scoped to the call: its representatives are positions in those
// columns, and a record's window reads the records before it in place,
// before Lo too.
func (g *SelectiveSweep) SweepBlock(blk bp.KernelBlock, correct []int32) {
	g.sweep(blk, correct, nil)
}

// SweepBlockBranches implements bp.BranchSweepKernel: SweepBlock with
// the per-branch replay loop.
func (g *SelectiveSweep) SweepBlockBranches(blk bp.KernelBlock, correct []int32, branches [][]int32) {
	g.sweep(blk, correct, branches)
}

// sweep is SweepBlock, and with non-nil perID SweepBlockBranches; the
// replay loop is chosen once per block.
func (g *SelectiveSweep) sweep(blk bp.KernelBlock, correct []int32, perID [][]int32) {
	g.intern(blk.Addrs)
	correct = correct[:len(g.cfgs)]
	g.memo.reset(blk.IDs, blk.Taken, blk.Back, g.em.windows[len(g.em.windows)-1], blk.Lo, blk.Hi)
	g.pats = g.pats[:0]
	g.em.setColumns(blk.IDs, blk.Taken, blk.Back)
	if perID != nil {
		g.sweepRangeBranches(blk.Lo, blk.Hi, correct, perID)
	} else {
		g.sweepRange(blk.Lo, blk.Hi, correct)
	}
}

// sweepRange replays column positions [lo, hi): each record's
// per-config pattern-table indices come from patternsAt, then every
// config trains its pattern counter, in record order.
//
//bplint:hot
func (g *SelectiveSweep) sweepRange(lo, hi int, correct []int32) {
	em := g.em
	ids := em.ids
	branches := g.branches
	ncfg := len(g.cfgs)
	for i := lo; i < hi; i++ {
		br := &branches[ids[i]]
		taken := em.taken1(i)
		pat := g.patternsAt(i, br) //bplint:ignore kernel-purity classes and their pattern cache grow on the memo's miss path only, within its class budget
		for c := 0; c < ncfg; c++ {
			tbl := br.tables[c] //bplint:ignore bce-hoist br is selected per record; its per-config tables cannot hoist above the record loop
			idx := pat[c]
			cnt := tbl[idx]
			if cnt.Taken() == taken {
				correct[c]++
			}
			tbl[idx] = cnt.Next(taken)
		}
	}
}

// sweepRangeBranches is sweepRange that also adds each correct
// prediction of config c to perID[c][id], id being the record's dense ID.
//
//bplint:hot
func (g *SelectiveSweep) sweepRangeBranches(lo, hi int, correct []int32, perID [][]int32) {
	em := g.em
	ids := em.ids
	branches := g.branches
	ncfg := len(g.cfgs)
	perID = perID[:ncfg]
	for i := lo; i < hi; i++ {
		id := ids[i]
		br := &branches[id]
		taken := em.taken1(i)
		pat := g.patternsAt(i, br) //bplint:ignore kernel-purity classes and their pattern cache grow on the memo's miss path only, within its class budget
		for c := 0; c < ncfg; c++ {
			tbl := br.tables[c] //bplint:ignore bce-hoist br is selected per record; its per-config tables cannot hoist above the record loop
			idx := pat[c]
			cnt := tbl[idx]
			if cnt.Taken() == taken {
				correct[c]++
				perID[c][id]++
			}
			tbl[idx] = cnt.Next(taken)
		}
	}
}

// patternsAt returns column position i's pattern-table index per config.
// They come from the record's signature class, resolved by one walk at
// the class's first record and cached, or, for an unclassified record,
// from a walk of its own.
func (g *SelectiveSweep) patternsAt(i int, br *selBranch) []uint8 {
	ncfg := len(g.cfgs)
	switch c, fresh := g.memo.classify(i); {
	case fresh:
		g.pats = extend(g.pats, ncfg)
		pat := g.pats[int(c)*ncfg:]
		g.patterns(i, br, pat)
		return pat
	case c >= 0:
		return g.pats[int(c)*ncfg:]
	default:
		g.patterns(i, br, g.pat)
		return g.pat
	}
}

// patterns is the sweep's one emission loop: one emitter walk at column
// position i resolves every config's refs (config c reads the emissions
// of its own window's prefix), and pat[c] receives config c's
// pattern-table index.
//
//bplint:hot
func (g *SelectiveSweep) patterns(i int, br *selBranch, pat []uint8) {
	em := g.em
	cfgs := g.cfgs
	bucket := g.bucket
	ncfg := len(bucket)
	st := g.states
	refsOf, nrefs := br.refsOf, br.nrefs
	for j := range st {
		st[j] = StateAbsent
	}
	if remaining := len(br.set.keys); remaining > 0 {
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
					for m := refsOf[ki*ncfg+c]; m != 0; m &= m - 1 {
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
		n := int(nrefs[c])
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
		pat[c] = uint8(idx)
	}
}

var _ bp.BranchSweepKernel = (*SelectiveSweep)(nil)
