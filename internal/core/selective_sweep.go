package core

import (
	"fmt"
	"slices"

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
// configurations: one replay of the packed columns drives every config.
//
// What is shared is the history window itself. Both tagging schemes
// resolve an entry's tag from strictly more-recent entries, so the first
// n steps of a walk at the largest config window are exactly the walk a
// dedicated n-entry window would produce. A record's pattern-table
// index per config therefore follows from one resolution of the refs'
// states at the largest window, each config reading the prefix its own
// window covers, and it depends only on the record's branch and the
// records before it.
//
// The resolution is an oracle collection's: its state vectors
// (BeamStates) hold, for every branch with a beam, the beam's states at
// every window, once per path-signature class (PathClasses, pathmemo.go)
// and once per record the classification declined. A config's index is
// a few bit extractions from the vector at its window, at its refs'
// beam slots, read in the collection's walk order: each class's
// per-config indices are read once, every record of the class reads
// them, and a declined record reads the next stored vectors. The
// counter train/predict step runs for every record, in order. Per
// config: the pattern-counter tables, held as dense per-ID columns so
// the per-record replay does no map access.
//
// The states come from one of two places:
//
//   - An oracle run (NewSelectiveSweepStates): OracleStates resolves
//     every branch's beam at every window, and every ref the oracle
//     selects, or was handed as held, sits in a beam slot. The report's
//     sweeps all run this way, sharing the run's classes.
//   - The sweep's own collection (NewSelectiveSweep), for assignments
//     from anywhere: per window, each branch's union of the configs'
//     refs is one held beam, and the first block classifies its trace
//     at the largest window and runs the held-only collection
//     OracleStates runs, counted into a registry of its own. The sweep
//     counts the collection's walks in obs.Default()'s
//     core.selective.sweep.walks; from then on it replays like a sweep
//     over states.
//
// The classes are read by every block and every config shard, never
// written, and held only as long as the sweep is.
//
// SweepBlock is observationally identical, per config, to replaying the
// records through NewSelectiveMode(cfg...): the resolved pattern trains
// the same counter the scalar Predict/Update pair would, against the
// records that precede it in the stream — the scalar ordering (Update
// pushes after training). Every block must carry the trace's full
// columns, the same slices on every call, with [Lo, Hi) the range to
// replay, so each record's look-back reads the records before Lo in
// place; and every block must carry the trace's complete intern table.
// sim.SimulateSweep hands over the whole trace as one such block.
type SelectiveSweep struct {
	gridName string
	cfgs     []SelectiveConfig
	bucket   []int // per config: index of its window in the states' windows

	branches []selBranch // per dense ID, nil until the states are set
	ids      []int32     // the current block's dense-ID column
	taken    []uint64    // the current block's taken bitset

	pats []uint8 // [class × config]: the class's pattern-table index per config
	pat  []uint8 // per config: a declined record's pattern-table index

	// The held-only collection of a NewSelectiveSweep, run on its first
	// block: nil once the states are set.
	windows []int                        // the configs' distinct windows, ascending
	held    []map[trace.Addr]*Candidates // per window: each branch's union of the configs' refs

	beams   *BeamStates // nil until the states are set
	recNext int         // the next declined record's vectors, in vectors of len(beams.windows)
}

// selBranch is one dense ID's fused-grid state.
type selBranch struct {
	beam   bool            // the collection walked the branch (it has a beam)
	shifts []uint8         // [c × MaxSelectiveRefs + k]: bit offset of config c's k-th ref's beam slot
	nrefs  []uint8         // per config: assigned ref count
	tables [][]bp.Counter2 // per config: pow3-sized pattern counters
}

// NewSelectiveSweep returns a fused grid over cfgs in argument order
// that resolves its own states: it accepts any assignment. Every config
// needs a positive window length and at most MaxSelectiveRefs refs per
// branch, and the configs at one window may name at most 32 distinct
// refs of one branch, the slots of a state vector.
func NewSelectiveSweep(gridName string, cfgs []SelectiveConfig) *SelectiveSweep {
	g, windows := newSelectiveSweep(gridName, cfgs)
	g.windows = windows
	g.held = make([]map[trace.Addr]*Candidates, len(windows))
	for w, n := range windows {
		var assigns []Assignment
		var names []string
		for _, cfg := range cfgs {
			if cfg.Window == n {
				assigns = append(assigns, cfg.Assign)
				names = append(names, cfg.Name)
			}
		}
		g.held[w] = heldBeams(n, assigns, func(a int) string {
			return fmt.Sprintf("selective sweep config %q", names[a])
		})
	}
	return g
}

// NewSelectiveSweepStates is a selective sweep that replays an oracle
// collection's state vectors: it reads st's path classes, and every
// block must carry the columns of their trace; a sweep handed any other
// block panics. Every config's window must be one of the windows st
// resolved, built or held, and every ref a config assigns a branch of
// the trace must sit in that branch's beam at the config's window —
// true of the selections OracleStates returns and of the selections it
// held. A config naming any other ref panics here, before any replay.
func NewSelectiveSweepStates(st *BeamStates, gridName string, cfgs []SelectiveConfig) *SelectiveSweep {
	g, _ := newSelectiveSweep(gridName, cfgs)
	g.setStates(st)
	return g
}

// setStates points the sweep at st: it sets every config's window
// bucket and every dense ID's ref slots and pattern tables (pre-created
// here so the replay loop never allocates).
func (g *SelectiveSweep) setStates(st *BeamStates) {
	for c, cfg := range g.cfgs {
		w, ok := slices.BinarySearch(st.windows, cfg.Window)
		if !ok {
			panic(fmt.Sprintf("core: selective sweep config %q window %d has no state vectors (windows %v)", cfg.Name, cfg.Window, st.windows))
		}
		g.bucket[c] = w
	}
	addrs := st.pc.pt.Addrs()
	branches := make([]selBranch, len(addrs))
	for id, a := range addrs {
		br := g.newBranch(a)
		br.beam = st.beams[id] != nil
		br.shifts = make([]uint8, len(g.cfgs)*MaxSelectiveRefs)
		for c, cfg := range g.cfgs {
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
		branches[id] = br
	}
	g.branches, g.beams = branches, st
	g.windows, g.held = nil, nil
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
// [lo, hi) (each shard owns private pattern tables, which is exact: a
// record's patterns are stream-determined). Shards of a sweep with
// states read them; shards of a NewSelectiveSweep that has not yet
// replayed a block each run their own collection on their first block.
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

// resolve runs a NewSelectiveSweep's collection over the trace whose
// full columns blk carries, shared, not copied: one classification at
// the largest window and OracleStates' held-only collection of the
// configs' unions, on one worker (the sweep is one; sim shards
// configs), with their counters kept out of the caller's registries.
// The sweep then replays the collection's states, and counts its walks
// in obs.Default()'s core.selective.sweep.walks.
func (g *SelectiveSweep) resolve(blk bp.KernelBlock) {
	pt, err := trace.AssemblePacked(g.gridName, blk.Addrs, blk.IDs, blk.Taken, blk.Back)
	if err != nil {
		panic(fmt.Sprintf("core: selective sweep %q: %v", g.gridName, err))
	}
	reg := obs.New()
	pc := ClassifyPaths(pt, g.windows[len(g.windows)-1], reg)
	st := heldStates(pc, g.windows, g.held, OracleConfig{ScoreParallel: 1, Obs: reg})
	obs.Default().Counter("core.selective.sweep.walks").Add(int64((len(st.recs) + len(st.classes)) / len(st.windows)))
	g.setStates(st)
}

// SweepBlock implements bp.SweepKernel. The block's records [Lo, Hi)
// replay over its full columns, by path-signature class. A record's
// window reads the records before it in place, before Lo too.
func (g *SelectiveSweep) SweepBlock(blk bp.KernelBlock, correct []int32) {
	g.sweep(blk, correct, nil)
}

// SweepBlockBranches implements bp.BranchSweepKernel: SweepBlock with
// the per-branch replay loop.
func (g *SelectiveSweep) SweepBlockBranches(blk bp.KernelBlock, correct []int32, branches [][]int32) {
	g.sweep(blk, correct, branches)
}

// sweep is SweepBlock, and with non-nil perID SweepBlockBranches: it
// readies the block, then runs the replay loop chosen once per block.
func (g *SelectiveSweep) sweep(blk bp.KernelBlock, correct []int32, perID [][]int32) {
	correct = correct[:len(g.cfgs)]
	class := g.prepare(blk).class[blk.Lo:blk.Hi]
	if perID != nil {
		g.sweepRangeBranches(blk.Lo, class, correct, perID)
	} else {
		g.sweepRange(blk.Lo, class, correct)
	}
}

// prepare readies blk's replay: a NewSelectiveSweep's first block runs
// its collection, the first block reads every class's pattern-table
// indices, and every block points the sweep at blk's columns, which
// must be the ones the states' classes index, and sets the
// declined-record cursor to blk.Lo. It returns the classes.
func (g *SelectiveSweep) prepare(blk bp.KernelBlock) *PathClasses {
	if g.beams == nil {
		g.resolve(blk)
	}
	if len(blk.Addrs) != len(g.branches) {
		panic(fmt.Sprintf("core: selective sweep block carries %d branches, its states %d", len(blk.Addrs), len(g.branches)))
	}
	pc := g.beams.pc
	if len(pc.ids) != len(blk.IDs) || len(blk.IDs) > 0 && &pc.ids[0] != &blk.IDs[0] {
		panic(fmt.Sprintf("core: selective sweep %q handed a block its path classes do not cover", g.gridName))
	}
	g.ids, g.taken = blk.IDs, blk.Taken
	if g.pats == nil {
		g.pats = make([]uint8, len(pc.reps)*len(g.cfgs))
		g.readClasses(pc)
	}
	g.recNext = g.recordsBefore(pc, blk.Lo)
	return pc
}

// readClasses fills every live class's per-config pattern-table
// indices: each live class of a branch with a beam reads the next class
// vectors, in class order, as the collection stored them.
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
	for k, c := range pc.class[:lo] {
		if c < 0 && g.branches[g.ids[k]].beam {
			n++
		}
	}
	return n
}

// recordPatterns fills pat with the pattern-table indices of a record
// its class does not cover, of branch br: the next stored record
// vectors.
func (g *SelectiveSweep) recordPatterns(br *selBranch, pat []uint8) {
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
// come from its class, or from the next declined-record vectors, then
// every config trains its pattern counter, in record order.
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
			g.recordPatterns(br, pat)
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
			g.recordPatterns(br, pat)
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

// vectorPatterns is the sweep's one pattern loop: pat[c] receives
// config c's pattern-table index, read from vec (one state vector per
// window of the states; nil for a branch without a beam, which no
// config assigns refs) at config c's window and refs' slots.
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

var _ bp.BranchSweepKernel = (*SelectiveSweep)(nil)
