// Differential tests for the interference-free counter layouts: the
// dense (ID, history) array and the hash (ifTable). Each test forces
// every layout through SetIFDenseBytesPerRecord and checks that the
// kernels, the fused IF grids and the class scorer score exactly what
// the scalar reference loop scores, that the layout rule picks what it
// says, and that the one-time spill from the dense layout to the hash
// (a stream's new sites, a scalar call) keeps every counter.
package bp_test

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"branchcorr/internal/bp"
	"branchcorr/internal/sim"
	"branchcorr/internal/trace"
	"branchcorr/internal/workloads"
)

// ifLayouts are the layout settings every test runs under: the
// production rule (4 bytes per record), a budget that puts every table
// of these traces on the dense layout that fits in a few MB, and the
// hash alone.
var ifLayouts = []struct {
	name      string
	perRecord uint64
}{
	{"input", 4},
	{"dense", 256},
	{"hash", 0},
}

// ifLayoutBits are the history lengths under test: the shortest, the
// report's 12 and 16, and the longest, which never fits the dense
// layout.
var ifLayoutBits = []uint{1, 12, 16, 32}

// ifRandomTrace builds a trace of n records over the given number of
// sites with uniformly random sites and outcomes, so IF tables meet
// many (site, history) pairs.
func ifRandomTrace(n, sites int) *trace.Trace {
	tr := trace.New(fmt.Sprintf("rand%d", sites), n)
	x := uint32(1)
	next := func() uint32 {
		x = x*1664525 + 1013904223
		return x >> 8
	}
	for i := 0; i < n; i++ {
		s := int(next()) % sites
		tr.Append(trace.Record{PC: trace.Addr(0x10000 + 4*s), Taken: next()&1 == 1, Backward: s%4 == 0})
	}
	return tr
}

// ifLayoutTraces are the eight workload traces and a many-site random
// trace.
func ifLayoutTraces() []*trace.Trace {
	var out []*trace.Trace
	for _, w := range workloads.All() {
		out = append(out, w.Generate(20_000))
	}
	return append(out, ifRandomTrace(20_000, 2000))
}

func ifGshares(bits []uint) []bp.Predictor {
	out := make([]bp.Predictor, len(bits))
	for i, b := range bits {
		out[i] = bp.NewIFGshare(b)
	}
	return out
}

func ifPAses(bits []uint) []bp.Predictor {
	out := make([]bp.Predictor, len(bits))
	for i, b := range bits {
		out[i] = bp.NewIFPAs(b)
	}
	return out
}

// wantDense is the layout rule: a table of tableBytes counters is dense
// when it fits perRecord bytes for each of n records.
func wantDense(tableBytes uint64, perRecord uint64, n int) bool {
	return tableBytes <= perRecord*uint64(n)
}

// TestIFLayoutsMatchReference runs IF-gshare and IF-PAs at every
// history length of ifLayoutBits — as kernels, as fused grids and, for
// IF-PAs, as the class scorer — under every layout, against the scalar
// reference loop: Results, hit columns and per-branch counts must be
// identical, and each store must be on the layout the rule picks.
func TestIFLayoutsMatchReference(t *testing.T) {
	for _, tr := range ifLayoutTraces() {
		pt := tr.Packed()
		n, sites := pt.Len(), uint64(pt.NumBranches())
		refG := sim.Simulate(tr, ifGshares(ifLayoutBits), sim.Options{Hits: true, ForceReference: true})
		refP := sim.Simulate(tr, ifPAses(ifLayoutBits), sim.Options{ForceReference: true})
		streams := pt.Branches()
		var firstCounts [][]bp.ClassCounts
		for _, lay := range ifLayouts {
			restore := bp.SetIFDenseBytesPerRecord(lay.perRecord)
			ctxt := tr.Name() + "/" + lay.name

			gs := ifGshares(ifLayoutBits)
			got := sim.Simulate(tr, gs, sim.Options{Hits: true})
			if !reflect.DeepEqual(refG.Results, got.Results) || !reflect.DeepEqual(refG.Hits, got.Hits) {
				t.Errorf("%s: IF-gshare kernels differ from the reference (results or hit columns)", ctxt)
			}
			ps := ifPAses(ifLayoutBits)
			if got := sim.Simulate(tr, ps, sim.Options{}); !reflect.DeepEqual(refP.Results, got.Results) {
				t.Errorf("%s: IF-PAs kernels differ from the reference", ctxt)
			}
			for i, b := range ifLayoutBits {
				want := wantDense(sites<<b, lay.perRecord, n)
				if bp.IFDense(gs[i]) != want || bp.IFDense(ps[i]) != want {
					t.Errorf("%s: k=%d dense = %v (IF-gshare), %v (IF-PAs), want %v", ctxt, b, bp.IFDense(gs[i]), bp.IFDense(ps[i]), want)
				}
			}

			for _, g := range []struct {
				grid bp.SweepKernel
				ref  *sim.Outcome
			}{
				{bp.NewIFGshareSweep(ifLayoutBits), refG},
				{bp.NewIFPAsSweep(ifLayoutBits), refP},
			} {
				correct := make([]int32, len(ifLayoutBits))
				g.grid.SweepBlock(blockOf(pt, 0, n), correct)
				out := sim.SimulateSweep(tr, g.grid.Shard(0, len(ifLayoutBits)), sim.Options{})
				dense := bp.IFGridDense(g.grid)
				for c, b := range ifLayoutBits {
					want := g.ref.Results[c].Correct
					if int(correct[c]) != want || int(out.Correct[c]) != want {
						t.Errorf("%s: %s config %d: %d (SweepBlock), %d (SimulateSweep) correct, want %d",
							ctxt, g.grid.GridName(), c, correct[c], out.Correct[c], want)
					}
					if dense[c] != wantDense(sites<<b, lay.perRecord, n) {
						t.Errorf("%s: %s k=%d dense = %v", ctxt, g.grid.GridName(), b, dense[c])
					}
				}
			}

			counts := make([][]bp.ClassCounts, len(ifLayoutBits))
			for i, b := range ifLayoutBits {
				sc := bp.NewClassScorer(b)
				counts[i] = make([]bp.ClassCounts, sites)
				for id, a := range pt.Addrs() {
					words, m := streams.Outcomes(int32(id))
					c := sc.Score(words, m, streams.Backward(int32(id)))
					counts[i][id] = c
					if want := refP.Results[i].PerBranch[a].Correct; c.Correct[3] != want {
						t.Errorf("%s: class scorer IF-PAs(%d) branch %#x: %d correct, want %d", ctxt, b, a, c.Correct[3], want)
					}
				}
			}
			if firstCounts == nil {
				firstCounts = counts
			} else if !reflect.DeepEqual(firstCounts, counts) {
				t.Errorf("%s: class counts differ from the %s layout's", ctxt, ifLayouts[0].name)
			}
			restore()
		}
	}
}

// splitSiteTrace is a trace whose first n records use `early` sites and
// whose next n add `late` more, so a stream's later blocks intern new
// IDs.
func splitSiteTrace(n, early, late int) *trace.Trace {
	tr := trace.New("split-sites", 2*n)
	x := uint32(7)
	next := func() uint32 {
		x = x*1664525 + 1013904223
		return x >> 8
	}
	for i := 0; i < 2*n; i++ {
		sites := early
		if i >= n {
			sites = early + late
		}
		s := int(next()) % sites
		tr.Append(trace.Record{PC: trace.Addr(0x8000 + 4*s), Taken: next()%3 != 0})
	}
	return tr
}

// TestIFLayoutStreamSpill streams a trace whose later blocks add sites
// past the dense budget: the IF kernels and grids start dense and spill
// to the hash once, mid-stream, and must still match the reference.
func TestIFLayoutStreamSpill(t *testing.T) {
	tr := splitSiteTrace(6000, 8, 72)
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatal(err)
	}
	// Budget 4*256 bytes: 8 sites fit k=4, 80 do not; k=2 always fits.
	// Short histories make every spilled counter's key recur many
	// times after the spill, so a lost counter shows.
	const chunk = 256
	bits := []uint{2, 4}
	preds := append(ifGshares(bits), ifPAses(bits)...)
	want := sim.Simulate(tr, append(ifGshares(bits), ifPAses(bits)...), sim.Options{ForceReference: true})
	grids := []bp.SweepKernel{bp.NewIFGshareSweep(bits), bp.NewIFPAsSweep(bits)}
	src, err := trace.ReadBlocks(bytes.NewReader(buf.Bytes()), chunk)
	if err != nil {
		t.Fatal(err)
	}
	perID := make([][]int32, len(preds))
	gridCorrect := make([][]int32, len(grids))
	for g := range grids {
		gridCorrect[g] = make([]int32, len(bits))
	}
	for blocks := 0; ; blocks++ {
		blk, ok := src.Next()
		if !ok {
			break
		}
		addrs := src.Addrs()
		kblk := bp.KernelBlock{IDs: blk.IDs, Taken: blk.Taken, Back: blk.Back, Addrs: addrs, Hi: blk.Len()}
		for i, p := range preds {
			perID[i] = append(perID[i], make([]int32, len(addrs)-len(perID[i]))...)
			p.(bp.KernelPredictor).SimulateBlock(kblk, perID[i])
		}
		for g, grid := range grids {
			grid.SweepBlock(kblk, gridCorrect[g])
		}
		if blocks == 0 {
			for _, p := range preds {
				if !bp.IFDense(p) {
					t.Errorf("%s: not dense after the first block", p.Name())
				}
			}
		}
	}
	if err := src.Err(); err != nil {
		t.Fatal(err)
	}
	addrs := tr.Packed().Addrs()
	for i, p := range preds {
		if wantDense := i%2 == 0; bp.IFDense(p) != wantDense {
			t.Errorf("%s: dense = %v at the end of the stream, want %v", p.Name(), bp.IFDense(p), wantDense)
		}
		for id, a := range addrs {
			if int(perID[i][id]) != want.Results[i].PerBranch[a].Correct {
				t.Errorf("%s: branch %#x: %d correct, want %d", p.Name(), a, perID[i][id], want.Results[i].PerBranch[a].Correct)
			}
		}
	}
	for g, grid := range grids {
		if dense := bp.IFGridDense(grid); !reflect.DeepEqual(dense, []bool{true, false}) {
			t.Errorf("%s: dense = %v at the end of the stream, want [true false]", grid.GridName(), dense)
		}
		for c := range bits {
			if w := want.Results[g*len(bits)+c].Correct; int(gridCorrect[g][c]) != w {
				t.Errorf("%s config %d: %d correct, want %d", grid.GridName(), c, gridCorrect[g][c], w)
			}
		}
	}
	src, err = trace.ReadBlocks(bytes.NewReader(buf.Bytes()), chunk)
	if err != nil {
		t.Fatal(err)
	}
	got, err := sim.SimulateBlocks(src, append(ifGshares(bits), ifPAses(bits)...), sim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want.Results, got.Results) {
		t.Error("SimulateBlocks differs from the reference")
	}
}

// TestIFLayoutScalarAfterKernel interleaves scalar calls with dense
// kernel runs: a kernel half leaves the counters dense, the first
// scalar call spills them, and the rest stays on the hash; per-branch
// counts must equal one scalar replay. On a trace whose sites all recur,
// at 4 history bits every spilled counter's key recurs after the spill.
func TestIFLayoutScalarAfterKernel(t *testing.T) {
	defer bp.SetIFDenseBytesPerRecord(256)()
	tr := kernelRandomTrace(5, 20_000)
	pt := tr.Packed()
	n := pt.Len()
	for _, mk := range []func() bp.Predictor{
		func() bp.Predictor { return bp.NewIFGshare(4) },
		func() bp.Predictor { return bp.NewIFPAs(4) },
		func() bp.Predictor { return bp.NewIFGshare(12) },
		func() bp.Predictor { return bp.NewIFPAs(12) },
	} {
		wantPC, wantTotal := scalarCounts(mk(), tr, 0, n)
		p := mk()
		k := p.(bp.KernelPredictor)
		correct := make([]int32, pt.NumBranches())
		total := k.SimulateBlock(blockOf(pt, 0, n/2), correct)
		if !bp.IFDense(p) {
			t.Fatalf("%s: not dense after a kernel run", p.Name())
		}
		mid, midTotal := scalarCounts(p, tr, n/2, 3*n/4)
		if bp.IFDense(p) {
			t.Fatalf("%s: still dense after scalar calls", p.Name())
		}
		total += midTotal + k.SimulateBlock(blockOf(pt, 3*n/4, n), correct)
		if bp.IFDense(p) {
			t.Errorf("%s: dense again after the spill", p.Name())
		}
		if total != wantTotal {
			t.Errorf("%s: %d correct, want %d", p.Name(), total, wantTotal)
		}
		for id, a := range pt.Addrs() {
			if got := int(correct[id]) + mid[a]; got != wantPC[a] {
				t.Errorf("%s: branch %#x: %d correct, want %d", p.Name(), a, got, wantPC[a])
			}
		}
	}
}

// TestIFLayoutChooser runs a hybrid whose component is IF-gshare, whose
// kernel replays the component a tile at a time from the predictor's
// own store, under every layout against the reference loop.
func TestIFLayoutChooser(t *testing.T) {
	tr := workloads.All()[1].Generate(20_000)
	const spec = "hybrid:(ifgshare:12),(bimodal:10),8"
	mk := func() bp.Predictor {
		p, err := bp.Parse(spec, bp.Env{})
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	want := sim.Simulate(tr, []bp.Predictor{mk()}, sim.Options{Hits: true, ForceReference: true})
	for _, lay := range ifLayouts {
		restore := bp.SetIFDenseBytesPerRecord(lay.perRecord)
		got := sim.Simulate(tr, []bp.Predictor{mk()}, sim.Options{Hits: true, BucketSize: 3000})
		if !reflect.DeepEqual(want.Results, got.Results) || !reflect.DeepEqual(want.Hits, got.Hits) {
			t.Errorf("%s: %s differs from the reference (results or hit column)", lay.name, spec)
		}
		restore()
	}
}
