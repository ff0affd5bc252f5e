package core

import (
	"fmt"
	"strings"
	"testing"

	"branchcorr/internal/bp"
	"branchcorr/internal/obs"
	"branchcorr/internal/sim"
	"branchcorr/internal/trace"
)

// selSweepTrace builds a deterministic trace exercising every selective
// mechanism at once: an occurrence-correlated pair (0x200 copies 0x100),
// a cross-iteration correlation over a taken backward loop branch
// (0x210 copies the previous iteration's 0x100), aliasing noise, and
// variable-length iteration bodies. Branch 0x400 first executes in the
// last quarter of the iterations, long after 0x200, whose "late" config
// refs name it.
func selSweepTrace(iters int) *trace.Trace {
	tr := trace.New("sel-sweep", 0)
	rng := lcg(21)
	noise := lcg(34)
	prevY := true
	for i := 0; i < iters; i++ {
		y := rng.bit()
		tr.Append(rec(0x100, y))
		for g := 0; g < i%4; g++ {
			tr.Append(rec(trace.Addr(0x300+g*4), noise.bit()))
		}
		if i >= iters*3/4 {
			tr.Append(rec(0x400, !y))
		}
		tr.Append(rec(0x200, y))
		tr.Append(rec(0x210, prevY))
		tr.Append(backTaken(0x1F0))
		prevY = y
	}
	return tr
}

// selSweepConfigs is the conformance grid: mixed window lengths, both
// modes, 0–3 refs per branch, and both tagging schemes.
func selSweepConfigs() []SelectiveConfig {
	pair := Assignment{0x200: {Ref{0x100, Occurrence, 0}}}
	multi := Assignment{
		0x200: {Ref{0x100, Occurrence, 0}, Ref{0x300, Occurrence, 0}, Ref{0x1F0, BackwardCount, 0}},
		0x210: {Ref{0x100, BackwardCount, 1}},
	}
	late := Assignment{
		0x200: {Ref{0x400, Occurrence, 0}, Ref{0x100, Occurrence, 0}, Ref{0x400, Occurrence, 0}},
		0x400: {Ref{0x1F0, BackwardCount, 0}, Ref{0x500, Occurrence, 0}},
	}
	return []SelectiveConfig{
		{Name: "pair(16)", Window: 16, Assign: pair},
		{Name: "multi(8)", Window: 8, Assign: multi},
		{Name: "multi(24,presence)", Window: 24, Assign: multi, Mode: ModePresence},
		{Name: "empty(4)", Window: 4, Assign: Assignment{}},
		{Name: "pair(32,presence)", Window: 32, Assign: pair, Mode: ModePresence},
		{Name: "late(12)", Window: 12, Assign: late},
	}
}

// selBlockOf builds the kernel input for a packed trace over [lo, hi).
func selBlockOf(pt *trace.Packed, lo, hi int) bp.KernelBlock {
	return bp.KernelBlock{
		IDs:   pt.IDs(),
		Taken: pt.TakenWords(),
		Back:  pt.BackwardWords(),
		Addrs: pt.Addrs(),
		Lo:    lo,
		Hi:    hi,
	}
}

// selSweepTotals replays the packed trace through SweepBlock in chunks.
func selSweepTotals(g *SelectiveSweep, pt *trace.Packed, chunk int) []int32 {
	correct := make([]int32, len(g.ConfigNames()))
	for at := 0; at < pt.Len(); at += chunk {
		g.SweepBlock(selBlockOf(pt, at, min(at+chunk, pt.Len())), correct)
	}
	return correct
}

// selFig4Configs is a Figure 4-shaped grid over tr: the window-16
// oracle's 1-, 2- and 3-ref assignments and its 3-ref one in presence
// mode, all at window 16, which the sweep folds into one held beam per
// branch, plus its 3-ref one at window 24.
func selFig4Configs(tr *trace.Trace) []SelectiveConfig {
	sels := Oracle(tr, OracleOptions{OracleConfig: OracleConfig{WindowLen: 16}})
	var cfgs []SelectiveConfig
	for k := 1; k <= MaxSelectiveRefs; k++ {
		cfgs = append(cfgs, SelectiveConfig{Name: fmt.Sprintf("sel%d(16)", k), Window: 16, Assign: sels.BySize[k]})
	}
	return append(cfgs,
		SelectiveConfig{Name: "presence3(16)", Window: 16, Assign: sels.BySize[3], Mode: ModePresence},
		SelectiveConfig{Name: "sel3(24)", Window: 24, Assign: sels.BySize[3]})
}

// selSweepStates returns the state vectors of NewSelectiveSweep's
// held-only collection of cfgs over pt's window-32 classes.
func selSweepStates(pt *trace.Packed, cfgs []SelectiveConfig) *BeamStates {
	return selSweepStatesOver(ClassifyPaths(pt, 32, obs.New()), cfgs)
}

// selSweepStatesOver is selSweepStates over the classes pc: the
// collection NewSelectiveSweep runs on its first block, over each
// window's union of the configs' refs as the sweep folds them.
func selSweepStatesOver(pc *PathClasses, cfgs []SelectiveConfig) *BeamStates {
	g := NewSelectiveSweep("sel", cfgs)
	return heldStates(pc, g.windows, g.held, OracleConfig{})
}

// TestSelectiveSweepStatesMatchScalar pins the sweep's pattern-table
// indices to the scalar spec's, record by record: each record's indices
// over the states (its class's, or the next declined-record vectors)
// must equal the index a NewSelectiveMode replay of the same records
// reads before its Update, for blocks at Lo 0 and past it, so the
// declined-record cursor also starts mid-list. Accuracy alone cannot
// see every fault here: a consistent relabeling of the states (taken
// read as not-taken and back) permutes each pattern table and predicts
// exactly as before. The conformance grid and the Figure 4-shaped grid
// run over held columns, gcc's oracle selections over built ones.
func TestSelectiveSweepStatesMatchScalar(t *testing.T) {
	sel := selSweepTrace(2000)
	gcc := workloadTrace(t, "gcc", 6_000)
	windows := []int{8, 16, 32}
	_, gccStates := OracleStates(ClassifyPaths(gcc, 32, obs.New()), windows, nil, OracleConfig{})
	fig4 := selFig4Configs(sel)
	for _, tc := range []struct {
		name string
		tr   *trace.Trace
		st   *BeamStates
		cfgs []SelectiveConfig
	}{
		{"sel-sweep", sel, selSweepStates(sel.Packed(), selSweepConfigs()), selSweepConfigs()},
		{"fig4", sel, selSweepStates(sel.Packed(), fig4), fig4},
		{"gcc", gcc, gccStates, oracleSweepConfigs(gcc, windows)},
	} {
		t.Run(tc.name, func(t *testing.T) { checkStatesMatchScalar(t, tc.tr, tc.st, tc.cfgs) })
	}
}

// checkStatesMatchScalar is TestSelectiveSweepStatesMatchScalar over
// the trace tr, its states st and the grid cfgs.
func checkStatesMatchScalar(t *testing.T, tr *trace.Trace, st *BeamStates, cfgs []SelectiveConfig) {
	t.Helper()
	pc := st.pc
	pt := pc.Packed()
	ncfg := len(cfgs)
	for _, lo := range []int{0, 1, 777, pt.Len() / 2} {
		g := NewSelectiveSweepStates(st, "sel", cfgs)
		g.prepare(selBlockOf(pt, lo, pt.Len()))
		specs := make([]*Selective, ncfg)
		for c, cfg := range cfgs {
			specs[c] = NewSelectiveMode(cfg.Name, cfg.Window, cfg.Assign, cfg.Mode)
			for i := 0; i < lo; i++ {
				specs[c].Update(pt.Record(i))
			}
		}
		got := make([]uint8, ncfg)
		for i := lo; i < pt.Len(); i++ {
			if c := pc.class[i]; c >= 0 {
				copy(got, g.pats[int(c)*ncfg:])
			} else {
				g.recordPatterns(&g.branches[pt.IDs()[i]], got)
			}
			for c, spec := range specs {
				if _, want := spec.patternIndex(pt.Record(i).PC); int(got[c]) != want {
					t.Fatalf("lo=%d record %d config %s: pattern %d (states) vs %d (scalar)", lo, i, cfgs[c].Name, got[c], want)
				}
				spec.Update(pt.Record(i))
			}
		}
	}
}

// TestSelectiveSweepScalarConformance pins the fused selective grid
// bit-identical, per config, to independent scalar Selective replays,
// driven as SweepBlock calls over consecutive [Lo, Hi) ranges of the
// full packed columns, walking and replaying a collection's state
// vectors. The chunk sizes cover single-record and word-straddling
// ranges, ranges around the grid's largest window (32) whose records
// look back across one or more range boundaries, and one record past
// 4096. 0x400 first appears long after its consumer 0x200, 0x500 never
// appears at all, and one config names a ref twice. The Figure 4-shaped
// grid puts four configs at one window.
func TestSelectiveSweepScalarConformance(t *testing.T) {
	tr := selSweepTrace(4000)
	pt := tr.Packed()
	for gname, cfgs := range map[string][]SelectiveConfig{"conformance": selSweepConfigs(), "fig4": selFig4Configs(tr)} {
		want := scalarSelective(tr, cfgs)
		st := selSweepStates(pt, cfgs)
		for _, chunk := range []int{1, 31, 32, 33, 63, 64, 65, 1000, 4097, tr.Len()} {
			for name, g := range map[string]*SelectiveSweep{
				"own":    NewSelectiveSweep("sel", cfgs),
				"states": NewSelectiveSweepStates(st, "sel", cfgs),
			} {
				got := selSweepTotals(g, pt, chunk)
				for c := range want {
					if int64(got[c]) != want[c] {
						t.Errorf("%s %s chunk=%d config %s: %d correct (fused) vs %d (scalar)",
							gname, name, chunk, cfgs[c].Name, got[c], want[c])
					}
				}
			}
		}
	}
}

// TestSelectiveSweepShardComposition pins shard replays to the matching
// slice of the unsharded totals (each shard owns a private ring fed the
// identical stream, so composition is exact).
func TestSelectiveSweepShardComposition(t *testing.T) {
	tr := selSweepTrace(3000)
	pt := tr.Packed()
	cfgs := selSweepConfigs()
	want := selSweepTotals(NewSelectiveSweep("sel", cfgs), pt, 1000)
	names := NewSelectiveSweep("sel", cfgs).ConfigNames()
	for _, r := range [][2]int{{0, 1}, {0, 2}, {2, 5}, {1, 4}, {0, 6}, {5, 6}} {
		lo, hi := r[0], r[1]
		sub := NewSelectiveSweep("sel", cfgs).Shard(lo, hi)
		kernel := sub.(bp.SweepKernel)
		subNames := sub.ConfigNames()
		got := selSweepTotals(kernel.(*SelectiveSweep), pt, 1000)
		for c := range got {
			if subNames[c] != names[lo+c] {
				t.Errorf("shard [%d,%d): config %d named %q, want %q", lo, hi, c, subNames[c], names[lo+c])
			}
			if got[c] != want[lo+c] {
				t.Errorf("shard [%d,%d): config %s: %d correct vs %d unsharded",
					lo, hi, subNames[c], got[c], want[lo+c])
			}
		}
	}
}

// TestSelectiveSweepShardedSimulate drives the grid through the sim
// scheduler at several shard counts: the Figure 4/5 integration path —
// outcomes must be byte-identical to the sequential engine and to the
// scalar replays. A resolved sweep's shards share its states; the
// shards of one that has replayed nothing each run their own
// collection.
func TestSelectiveSweepShardedSimulate(t *testing.T) {
	tr := selSweepTrace(3000)
	for gname, cfgs := range map[string][]SelectiveConfig{"conformance": selSweepConfigs(), "fig4": selFig4Configs(tr)} {
		st := selSweepStates(tr.Packed(), cfgs)
		resolved := NewSelectiveSweep("sel", cfgs)
		base := sim.SimulateSweep(tr, resolved, sim.Options{})
		want := scalarSelective(tr, cfgs)
		for c := range want {
			if base.Correct[c] != want[c] {
				t.Errorf("%s config %s: %d correct, want %d (scalar)", gname, base.Configs[c], base.Correct[c], want[c])
			}
		}
		for _, par := range []int{2, 3, -1} {
			for name, g := range map[string]*SelectiveSweep{
				"own":      NewSelectiveSweep("sel", cfgs),
				"resolved": NewSelectiveSweep("sel", cfgs),
				"states":   NewSelectiveSweepStates(st, "sel", cfgs),
			} {
				if name == "resolved" {
					g.prepare(selBlockOf(tr.Packed(), 0, tr.Len()))
				}
				out := sim.SimulateSweep(tr, g, sim.Options{Parallel: par})
				for c := range base.Correct {
					if out.Correct[c] != base.Correct[c] {
						t.Errorf("%s %s parallel=%d config %s: %d correct, want %d",
							gname, name, par, base.Configs[c], out.Correct[c], base.Correct[c])
					}
				}
			}
		}
	}
}

// TestSelectiveSweepConfigNames pins the grid labels to the scalar
// predictors Configs() materializes.
func TestSelectiveSweepConfigNames(t *testing.T) {
	g := NewSelectiveSweep("sel", selSweepConfigs())
	names := g.ConfigNames()
	preds := g.Configs()
	if g.GridName() != "sel" {
		t.Errorf("grid name %q", g.GridName())
	}
	for c, p := range preds {
		if names[c] != p.Name() {
			t.Errorf("config %d: grid name %q vs scalar name %q", c, names[c], p.Name())
		}
	}
}

// TestSelectiveSweepAllocs pins steady-state SweepBlock at zero
// allocations for both constructors: ref slots and tables are dense
// per-ID columns pre-created when the states are set (for
// NewSelectiveSweep, by the first block's collection), and every class's
// pattern-table indices are read once, on the first block.
func TestSelectiveSweepAllocs(t *testing.T) {
	tr := selSweepTrace(3000)
	pt := tr.Packed()
	cfgs := selSweepConfigs()
	st := selSweepStates(pt, cfgs)
	for gname, g := range map[string]*SelectiveSweep{
		"own":    NewSelectiveSweep("sel", cfgs),
		"states": NewSelectiveSweepStates(st, "sel", cfgs),
	} {
		correct := make([]int32, len(g.ConfigNames()))
		full := selBlockOf(pt, 0, pt.Len())
		g.SweepBlock(full, correct) // warm-up: the collection and the class patterns
		for name, blk := range map[string]bp.KernelBlock{"full": full, "mid": selBlockOf(pt, pt.Len()/4, pt.Len()/2)} {
			if n := testing.AllocsPerRun(10, func() { g.SweepBlock(blk, correct) }); n != 0 {
				t.Errorf("%s: %.1f allocs per steady-state SweepBlock (%s range), want 0", gname, n, name)
			}
		}
	}
}

// TestSelectiveSweepInternGrowth runs a trace whose sites appear one at
// a time through sim.SimulateSweep: the grid sizes its per-ID state
// once, exactly, to the complete intern table, and a later block with a
// different intern table is refused.
func TestSelectiveSweepInternGrowth(t *testing.T) {
	tr := trace.New("intern-growth", 0)
	for i := 0; i < 400; i++ {
		tr.Append(rec(trace.Addr(0x1000+4*i), i%3 == 0))
		tr.Append(rec(0x100, i%2 == 0))
	}
	g := NewSelectiveSweep("sel", []SelectiveConfig{{Name: "sel", Window: 8, Assign: Assignment{0x100: {Ref{0x1004, Occurrence, 0}}}}})
	sim.SimulateSweep(tr, g, sim.Options{})
	if n := len(g.branches); n != 401 || cap(g.branches) != n {
		t.Errorf("%d branches held in capacity %d", n, cap(g.branches))
	}
	defer func() {
		if recover() == nil {
			t.Error("a block with a different intern table did not panic")
		}
	}()
	pt := tr.Packed()
	blk := selBlockOf(pt, 0, pt.Len())
	blk.Addrs = blk.Addrs[:100]
	g.SweepBlock(blk, make([]int32, 1))
}

// TestSelectiveSweepValidation pins the loud constructor failures, each
// with the words its message must carry.
func TestSelectiveSweepValidation(t *testing.T) {
	// 33 configs at window 8, each naming its own ref of branch 0x10:
	// one past the 32 slots of a state vector.
	wide := make([]SelectiveConfig, maxTopK+1)
	for k := range wide {
		r := Ref{0x20, Occurrence, uint8(k)}
		if k == maxTopK {
			r = Ref{0x20, BackwardCount, 0}
		}
		wide[k] = SelectiveConfig{Name: fmt.Sprintf("ref%d", k), Window: 8, Assign: Assignment{0x10: {r}}}
	}
	cases := map[string]struct {
		build func()
		want  []string
	}{
		"empty":       {func() { NewSelectiveSweep("g", nil) }, nil},
		"zero window": {func() { NewSelectiveSweep("g", []SelectiveConfig{{Name: "x", Window: 0}}) }, nil},
		"over refs": {func() {
			NewSelectiveSweep("g", []SelectiveConfig{{
				Name: "x", Window: 8, Assign: Assignment{0x10: make([]Ref, 4)},
			}})
		}, nil},
		"union past the beam": {func() { NewSelectiveSweep("g", wide) }, []string{`config "ref32"`, "branch 0x10", "window 8", "32 slots"}},
		"bad shard": {func() {
			NewSelectiveSweep("g", selSweepConfigs()).Shard(3, 2)
		}, nil},
		"classes below a config window": {func() {
			cfgs := selSweepConfigs()
			NewSelectiveSweepStates(selSweepStatesOver(ClassifyPaths(selSweepTrace(50), 16, obs.New()), cfgs[:1]), "g", cfgs)
		}, nil},
		"classes of another trace": {func() {
			cfgs := selSweepConfigs()
			st := selSweepStates(selSweepTrace(50).Packed(), cfgs)
			pt := selSweepTrace(50).Packed()
			NewSelectiveSweepStates(st, "g", cfgs).SweepBlock(selBlockOf(pt, 0, pt.Len()), make([]int32, 6))
		}, nil},
		"ref outside its beam": {func() {
			cfgs := selSweepConfigs()
			st := selSweepStates(selSweepTrace(50).Packed(), cfgs)
			NewSelectiveSweepStates(st, "g", []SelectiveConfig{{Name: "x", Window: cfgs[0].Window, Assign: cfgs[1].Assign}})
		}, nil},
	}
	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatal("did not panic")
				}
				for _, w := range tc.want {
					if msg := fmt.Sprint(r); !strings.Contains(msg, w) {
						t.Errorf("panic %q does not name %q", msg, w)
					}
				}
			}()
			tc.build()
		})
	}
}

// TestEmitterPrefixMatchesDedicatedWindow is the prefix property the
// shared multi-window walk rests on: resolving refs within the emissions
// a multi-window emitter attributes to window n (keys[:ends[w]]) must
// equal resolving them against a dedicated n-capacity window fed the
// identical stream, at every step.
func TestEmitterPrefixMatchesDedicatedWindow(t *testing.T) {
	tr := selSweepTrace(600)
	pt := tr.Packed()
	refs := []Ref{
		{0x100, Occurrence, 0}, {0x100, Occurrence, 2}, {0x200, Occurrence, 1},
		{0x100, BackwardCount, 1}, {0x1F0, BackwardCount, 0}, {0x300, BackwardCount, 2},
	}
	keys := make([]uint64, len(refs))
	for k, r := range refs {
		rid, ok := pt.IDOf(r.PC)
		if !ok {
			t.Fatalf("ref PC 0x%x not in trace", uint32(r.PC))
		}
		keys[k], _ = refKeyOf(rid, r)
	}
	windows := []int{1, 2, 5, 16, 32}
	em := newPackedEmitter(pt, windows)
	small := make([]*Window, len(windows))
	for w, n := range windows {
		small[w] = NewWindow(n)
	}
	wantSt := make([]State, len(refs))
	for i := 0; i < pt.Len(); i++ {
		r := pt.Record(i)
		em.emit(i, false)
		for w, n := range windows {
			small[w].States(refs, wantSt)
			for k, key := range keys {
				got := StateAbsent
				for _, e := range em.keys[:em.ends[w]] {
					if e&^refKeyTakenBit == key {
						got = stateOf(e&refKeyTakenBit != 0)
						break
					}
				}
				if got != wantSt[k] {
					t.Fatalf("n=%d step %d ref %v: emitter prefix %v, dedicated window %v",
						n, i, refs[k], got, wantSt[k])
				}
			}
			small[w].Push(r)
		}
	}
}
