package core

import (
	"fmt"
	"math/bits"
	"slices"
	"sort"

	"branchcorr/internal/bp"
	"branchcorr/internal/obs"
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
// dedicated n-entry window would produce. A record's pattern-table
// index per config therefore follows from one resolution of the refs'
// states at the largest window, each config reading the prefix its own
// window covers, and it depends only on the record's branch and the
// records before it: the records are classified by path signature
// (PathClasses, pathmemo.go), each class's per-config indices are
// resolved once before the replay, and every record of the class reads
// them. Records left unclassified resolve on their own during the
// replay. The counter train/predict step runs for every record, in
// order. Per config: the pattern-counter tables, held as dense per-ID
// columns so the per-record replay does no map access.
//
// The states come from one of two places:
//
//   - An oracle collection's state vectors (NewSelectiveSweepStates):
//     the collection already resolved every branch's beam at every
//     window, once per class and once per declined record, and every
//     ref the oracle selects sits in a beam slot. A config's index is a
//     few bit extractions from the vector at its window, at its refs'
//     slots, read in the collection's walk order; the sweep walks
//     nothing. The report's sweeps all run this way.
//   - A walk of their own (NewSelectiveSweep), for assignments from
//     anywhere: the oracle's columnar emitter (oracleEmitter) walks at
//     the largest window over the block's full columns. Per dense ID
//     the configs' refs fold into one union of packed ref keys (a
//     refKeySet), and the walk is focused on the union's keys, so it
//     emits only those and each emission resolves once, in O(1),
//     however many configs name it. The sweep
//     counts its walks in obs.Default()'s core.selective.sweep.walks.
//
// A sweep over states reads the collection's classes: shared with the
// oracle run over the same trace, read by every block and every config
// shard, never written, and held only as long as the sweep is. A
// walking sweep classifies each block it is handed, through the same
// pass, into buffers it reuses from block to block.
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
// one such block.
type SelectiveSweep struct {
	gridName string
	cfgs     []SelectiveConfig
	bucket   []int // per config: index of its window in the walk's or the states' windows

	branches []selBranch // per dense ID, nil until the first block (states: built up front)
	ids      []int32     // the current block's dense-ID column
	taken    []uint64    // the current block's taken bitset

	shared *PathClasses // the states' classes, or nil
	own    PathClasses  // the current block's classes when shared is nil
	memo   pathMemo     // own's classification scratch
	pats   []uint8      // [class × config]: the class's pattern-table index per config
	pat    []uint8      // per config: an unclassified record's pattern-table index

	// The walk: nil em over states.
	em     *oracleEmitter
	states []State // [config × MaxSelectiveRefs] resolution scratch
	walks  int64   // walks since the last flush

	// The states: nil on the walk.
	beams   *BeamStates
	recNext int // the next declined record's vectors, in vectors of len(beams.windows)
}

// selBranch is one dense ID's fused-grid state.
type selBranch struct {
	set    refKeySet       // walk: union of the configs' interned packed ref keys
	refsOf []uint8         // walk: [key × configs + c]: bitmask of config c's refs naming the key
	beam   bool            // states: the collection walked the branch (it has a beam)
	shifts []uint8         // states: [c × MaxSelectiveRefs + k]: bit offset of config c's k-th ref's beam slot
	nrefs  []uint8         // per config: assigned ref count
	tables [][]bp.Counter2 // per config: pow3-sized pattern counters
}

// NewSelectiveSweep returns a fused grid over cfgs in argument order
// that walks: it resolves any assignment. Every config needs a positive
// window length and at most MaxSelectiveRefs refs per branch.
func NewSelectiveSweep(gridName string, cfgs []SelectiveConfig) *SelectiveSweep {
	g, windows := newSelectiveSweep(gridName, cfgs)
	for c, cfg := range cfgs {
		g.bucket[c], _ = slices.BinarySearch(windows, cfg.Window)
	}
	g.em = newOracleEmitter(windows)
	g.states = make([]State, len(cfgs)*MaxSelectiveRefs)
	return g
}

// NewSelectiveSweepStates is a selective sweep that replays an oracle
// collection's state vectors instead of walking: it reads st's path
// classes, and every block must carry the columns of their trace; a
// sweep handed any other block panics. Every config's window must be
// one of the windows st resolved, built or held, and every ref a config
// assigns a branch of the trace must sit in that branch's beam at the
// config's window — true of the selections OracleStates returns and of
// the selections it held. A config naming any other ref panics here,
// before any replay.
func NewSelectiveSweepStates(st *BeamStates, gridName string, cfgs []SelectiveConfig) *SelectiveSweep {
	g, _ := newSelectiveSweep(gridName, cfgs)
	for c, cfg := range cfgs {
		w, ok := slices.BinarySearch(st.windows, cfg.Window)
		if !ok {
			panic(fmt.Sprintf("core: selective sweep config %q window %d has no state vectors (windows %v)", cfg.Name, cfg.Window, st.windows))
		}
		g.bucket[c] = w
	}
	g.shared, g.beams = st.pc, st
	addrs := st.pc.pt.Addrs()
	g.branches = make([]selBranch, len(addrs))
	for id, a := range addrs {
		br := g.newBranch(a)
		br.beam = st.beams[id] != nil
		br.shifts = make([]uint8, len(cfgs)*MaxSelectiveRefs)
		for c, cfg := range cfgs {
			for k, r := range cfg.Assign[a] {
				slot := -1
				if br.beam {
					slot = slices.Index(st.beams[id][g.bucket[c]], r)
				}
				if slot < 0 {
					panic(fmt.Sprintf("core: selective sweep config %q ref %v of branch 0x%x is not in its window-%d beam", cfg.Name, r, uint32(a), cfg.Window))
				}
				br.shifts[c*MaxSelectiveRefs+k] = uint8(2 * slot)
			}
		}
		g.branches[id] = br
	}
	return g
}

// newSelectiveSweep validates cfgs and returns a sweep over them with
// its per-config buckets unset, and the configs' distinct windows in
// ascending order.
func newSelectiveSweep(gridName string, cfgs []SelectiveConfig) (*SelectiveSweep, []int) {
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
	return &SelectiveSweep{
		gridName: gridName,
		cfgs:     append([]SelectiveConfig(nil), cfgs...),
		bucket:   make([]int, len(cfgs)),
		pat:      make([]uint8, len(cfgs)),
	}, windows
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
// contents are stream-determined). Shards read the grid's states, if
// any.
func (g *SelectiveSweep) Shard(lo, hi int) bp.SweepGrid {
	checkSelShardRange(lo, hi, len(g.cfgs))
	if g.beams != nil {
		return NewSelectiveSweepStates(g.beams, g.gridName, g.cfgs[lo:hi])
	}
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
// key set. Later blocks must carry the same table; so must every block
// of a sweep over states, which set up its branches when it was built.
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
		br := g.newBranch(a)
		g.resolveKeys(&br, a, idOf)
		g.branches[id] = br
	}
	g.em.growScratch(len(addrs))
}

// newBranch returns the branch at pc's per-config ref counts and
// pattern tables.
func (g *SelectiveSweep) newBranch(pc trace.Addr) selBranch {
	br := selBranch{nrefs: make([]uint8, len(g.cfgs)), tables: make([][]bp.Counter2, len(g.cfgs))}
	for c, cfg := range g.cfgs {
		n := len(cfg.Assign[pc])
		br.nrefs[c] = uint8(n)
		br.tables[c] = make([]bp.Counter2, pow3[n])
	}
	return br
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
// replay over its full columns, by path-signature class: the states'
// classes, or the block's own. A record's window reads the records
// before it in place, before Lo too.
func (g *SelectiveSweep) SweepBlock(blk bp.KernelBlock, correct []int32) {
	g.sweep(blk, correct, nil)
}

// SweepBlockBranches implements bp.BranchSweepKernel: SweepBlock with
// the per-branch replay loop.
func (g *SelectiveSweep) SweepBlockBranches(blk bp.KernelBlock, correct []int32, branches [][]int32) {
	g.sweep(blk, correct, branches)
}

// sweep is SweepBlock, and with non-nil perID SweepBlockBranches: it
// resolves every class's pattern-table indices, then runs the replay
// loop chosen once per block.
func (g *SelectiveSweep) sweep(blk bp.KernelBlock, correct []int32, perID [][]int32) {
	correct = correct[:len(g.cfgs)]
	pc := g.prepare(blk)
	class := pc.class[blk.Lo-pc.lo : blk.Hi-pc.lo]
	if perID != nil {
		g.sweepRangeBranches(blk.Lo, class, correct, perID)
	} else {
		g.sweepRange(blk.Lo, class, correct)
	}
	if g.em != nil {
		obs.Default().Counter("core.selective.sweep.walks").Add(g.walks)
		g.walks = 0
	}
}

// prepare readies blk's replay: it interns the trace on the first
// block, points the sweep at blk's columns, fills every class's
// pattern-table indices and, over states, sets the declined-record
// cursor to blk.Lo. It returns the classes that cover blk.
func (g *SelectiveSweep) prepare(blk bp.KernelBlock) *PathClasses {
	g.intern(blk.Addrs)
	pc := g.classesFor(blk)
	g.ids, g.taken = blk.IDs, blk.Taken
	g.pats = resize(g.pats, len(pc.reps)*len(g.cfgs))
	if g.beams != nil {
		g.readClasses(pc)
		g.recNext = g.recordsBefore(pc, blk.Lo)
	} else {
		g.em.setColumns(blk.IDs, blk.Taken, blk.Back)
		g.resolveClasses(pc)
	}
	return pc
}

// classesFor returns the path classes that cover blk: the states' ones,
// which must index blk's columns, or the block range's own.
func (g *SelectiveSweep) classesFor(blk bp.KernelBlock) *PathClasses {
	pc := g.shared
	if pc == nil {
		g.own.classify(&g.memo, blk.IDs, blk.Taken, blk.Back, g.em.windows[len(g.em.windows)-1], blk.Lo, blk.Hi)
		return &g.own
	}
	if len(pc.ids) != len(blk.IDs) || len(blk.IDs) > 0 && &pc.ids[0] != &blk.IDs[0] ||
		blk.Lo < pc.lo || blk.Hi > pc.lo+len(pc.class) {
		panic(fmt.Sprintf("core: selective sweep %q handed a block its path classes do not cover", g.gridName))
	}
	return pc
}

// resolveClasses fills every live class's per-config pattern-table
// indices with one walk at its representative.
//
//bplint:hot
func (g *SelectiveSweep) resolveClasses(pc *PathClasses) {
	ids := g.ids
	branches := g.branches
	pats := g.pats
	counts := pc.counts
	ncfg := len(g.cfgs)
	for c, rep := range pc.reps {
		if counts[c] > 0 {
			g.patterns(int(rep), &branches[ids[rep]], pats[c*ncfg:(c+1)*ncfg])
		}
	}
}

// readClasses is resolveClasses over the states: each live class of a
// branch with a beam reads the next class vectors, in class order, as
// the collection stored them.
//
//bplint:hot
func (g *SelectiveSweep) readClasses(pc *PathClasses) {
	ids := g.ids
	branches := g.branches
	pats := g.pats
	counts := pc.counts
	vecs := g.beams.classes
	nw := len(g.beams.windows)
	ncfg := len(g.cfgs)
	next := 0
	for c, rep := range pc.reps {
		if counts[c] == 0 {
			continue
		}
		br := &branches[ids[rep]]
		var vec []uint64
		if br.beam {
			vec = vecs[next*nw : (next+1)*nw]
			next++
		}
		g.vectorPatterns(br, vec, pats[c*ncfg:(c+1)*ncfg])
	}
}

// recordsBefore counts the records of pc before column position lo that
// the collection walked on their own: the index of the first declined
// record at or after lo in the stored record vectors.
func (g *SelectiveSweep) recordsBefore(pc *PathClasses, lo int) int {
	n := 0
	for k, c := range pc.class[:lo-pc.lo] {
		if c < 0 && g.branches[g.ids[pc.lo+k]].beam {
			n++
		}
	}
	return n
}

// recordPatterns fills pat with the pattern-table indices of column
// position i, a record its class does not cover: the next stored
// record vectors over states, a walk of its own otherwise.
func (g *SelectiveSweep) recordPatterns(i int, br *selBranch, pat []uint8) {
	if g.em != nil {
		g.patterns(i, br, pat)
		return
	}
	var vec []uint64
	if br.beam {
		nw := len(g.beams.windows)
		vec = g.beams.recs[g.recNext*nw : (g.recNext+1)*nw]
		g.recNext++
	}
	g.vectorPatterns(br, vec, pat)
}

// sweepRange replays column positions lo, lo+1, ... (class[k] being
// position lo+k's class): each record's per-config pattern-table indices
// come from its class, or are resolved for it alone, then every config
// trains its pattern counter, in record order.
//
//bplint:hot
func (g *SelectiveSweep) sweepRange(lo int, class []int32, correct []int32) {
	ids, takenBits := g.ids, g.taken
	branches := g.branches
	pats := g.pats
	ncfg := len(g.cfgs)
	for k, cl := range class {
		i := lo + k
		br := &branches[ids[i]]
		taken := takenBits[i>>6]>>(uint(i)&63)&1 != 0
		pat := g.pat
		if cl >= 0 {
			pat = pats[int(cl)*ncfg:]
		} else {
			g.recordPatterns(i, br, pat)
		}
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
func (g *SelectiveSweep) sweepRangeBranches(lo int, class []int32, correct []int32, perID [][]int32) {
	ids, takenBits := g.ids, g.taken
	branches := g.branches
	pats := g.pats
	ncfg := len(g.cfgs)
	perID = perID[:ncfg]
	for k, cl := range class {
		i := lo + k
		id := ids[i]
		br := &branches[id]
		taken := takenBits[i>>6]>>(uint(i)&63)&1 != 0
		pat := g.pat
		if cl >= 0 {
			pat = pats[int(cl)*ncfg:]
		} else {
			g.recordPatterns(i, br, pat)
		}
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

// vecStates maps a state vector's 2-bit slot value (0 absent, then
// stateVecTaken and stateVecNotTaken) to the selective pattern's State.
var vecStates = [4]State{StateAbsent, StateTaken, StateNotTaken, StateAbsent}

// vectorPatterns is the states' counterpart of patterns: pat[c]
// receives config c's pattern-table index, read from vec (one state
// vector per window of the states; nil for a branch without a beam,
// which no config assigns refs) at config c's window and refs' slots.
//
//bplint:hot
func (g *SelectiveSweep) vectorPatterns(br *selBranch, vec []uint64, pat []uint8) {
	cfgs := g.cfgs
	bucket := g.bucket
	nrefs, shifts := br.nrefs, br.shifts
	for c := range bucket {
		n := int(nrefs[c])
		if n == 0 {
			pat[c] = 0
			continue
		}
		v := vec[bucket[c]]
		sh := shifts[c*MaxSelectiveRefs : c*MaxSelectiveRefs+n]
		idx := 0
		if cfgs[c].Mode == ModePresence {
			for k := n - 1; k >= 0; k-- {
				idx <<= 1
				if v>>sh[k]&3 != 0 {
					idx |= 1
				}
			}
		} else {
			for k := n - 1; k >= 0; k-- {
				idx = idx*NumStates + int(vecStates[v>>sh[k]&3])
			}
		}
		pat[c] = uint8(idx)
	}
}

// patterns is the sweep's one emission loop: one emitter walk at column
// position i resolves every config's refs (config c reads the emissions
// of its own window's prefix), and pat[c] receives config c's
// pattern-table index.
//
//bplint:hot
func (g *SelectiveSweep) patterns(i int, br *selBranch, pat []uint8) {
	g.walks++
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
				ki := em.find(key &^ refKeyTakenBit)
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
