package sim

import (
	"fmt"
	"slices"
	"testing"

	"branchcorr/internal/bp"
	"branchcorr/internal/trace"
)

// fuzzSimSpecs is FuzzSimulate's spec list: one spec per kernel family,
// the combining predictors included, with every table capped at a few
// KB so no input allocates more than that per predictor.
var fuzzSimSpecs = []string{
	"bimodal:8", "gshare:10", "gas:8,2", "pas:8,6,2", "ifgshare:10", "ifpas:8",
	"taken", "not-taken", "btfnt", "ideal-static",
	"hybrid:(gshare:8),(pas:6,4,2),6", "tournament:6,6,8,6",
}

// fuzzSimBuckets are the bucket sizes FuzzSimulate picks from by its
// input's second byte: none, and sizes on and off the 64-record word.
var fuzzSimBuckets = []int{0, 1, 7, 63, 64, 100, 777}

// fuzzSimTrace turns fuzz bytes into a trace of at most 4096 records
// over at most 64 sites. Byte 0 sets the site count, byte 2 the
// backward sites (site s is backward when bit s%8 is set). Each byte
// from the fifth on adds records: with its top bit set, a loop — site
// b&63 runs 1..8 iterations (the next byte's low bits), taken on all
// but the last — and otherwise one record of site b&63 whose direction
// is bit 6.
func fuzzSimTrace(data []byte) *trace.Trace {
	tr := trace.New("fuzz", 0)
	if len(data) < 4 {
		return tr
	}
	sites := 1 + int(data[0])%64
	back := data[2]
	for k := 4; k < len(data) && tr.Len() < 4096; k++ {
		b := data[k]
		s := int(b&63) % sites
		pc, bk := trace.Addr(0x2000+4*s), back>>(s%8)&1 != 0
		if b&0x80 == 0 {
			tr.Append(trace.Record{PC: pc, Taken: b&0x40 != 0, Backward: bk})
			continue
		}
		iters := 1
		if k+1 < len(data) {
			k++
			iters += int(data[k] & 7)
		}
		for it := 0; it < iters && tr.Len() < 4096; it++ {
			tr.Append(trace.Record{PC: pc, Taken: it < iters-1, Backward: bk})
		}
	}
	return tr
}

// FuzzSimulate checks the simulation engines on traces drawn from the
// fuzz bytes (fuzzSimTrace). For every spec of fuzzSimSpecs, Simulate
// with hit columns and the input's bucket size must equal
// ForceReference — Results, hit columns and timelines — and the
// popcount timeline over the kernel's hit column must equal the
// bucketed one. The hybrid and the tournament must also score the same
// Result choosing over their components' stored hit columns, in two
// calls split at the input's fourth byte, so the tournament's history
// register carries across them.
func FuzzSimulate(f *testing.F) {
	f.Add([]byte{5, 3, 0x21, 17, 0x80, 3, 0x41, 0x02, 0x80, 5, 0x43, 0x01, 0x44})
	f.Add([]byte{63, 4, 0xff, 200, 0x10, 0x51, 0x92, 7, 0x23, 0x64, 0xa5, 2, 0x06, 0x47, 0x88})
	f.Fuzz(func(t *testing.T, data []byte) {
		tr := fuzzSimTrace(data)
		bucket := 0
		if len(data) > 1 {
			bucket = fuzzSimBuckets[int(data[1])%len(fuzzSimBuckets)]
		}
		for _, spec := range fuzzSimSpecs {
			ctxt := fmt.Sprintf("%s bucket=%d", spec, bucket)
			ref := Simulate(tr, []bp.Predictor{mkSpec(t, spec, tr)}, Options{Hits: true, BucketSize: bucket, ForceReference: true})
			got := Simulate(tr, []bp.Predictor{mkSpec(t, spec, tr)}, Options{Hits: true, BucketSize: bucket})
			sameResult(t, ctxt, ref.Results[0], got.Results[0])
			if !slices.Equal(ref.Hits[0], got.Hits[0]) {
				t.Errorf("%s: kernel hit column differs from the reference loop's", ctxt)
			}
			if bucket > 0 {
				if !slices.Equal(ref.Timelines[0].Accuracy, got.Timelines[0].Accuracy) {
					t.Errorf("%s: kernel timeline differs from the reference loop's", ctxt)
				}
				if pop := HitTimeline(spec, got.Hits[0], tr.Len(), bucket); !slices.Equal(pop.Accuracy, got.Timelines[0].Accuracy) {
					t.Errorf("%s: popcount timeline differs from the bucketed one", ctxt)
				}
			}
		}
		split := 0
		if len(data) > 3 && tr.Len() > 0 {
			split = int(data[3]) * tr.Len() / 255
		}
		hitsOf := func(p bp.Predictor) []uint64 {
			return Simulate(tr, []bp.Predictor{p}, Options{Hits: true}).Hits[0]
		}
		g8, pas := hitsOf(bp.NewGshare(8)), hitsOf(bp.NewPAs(6, 4, 2))
		for _, c := range []struct {
			spec string
			mk   func() bp.ColumnChooser
			a, b []uint64
		}{
			{fuzzSimSpecs[10], func() bp.ColumnChooser { return bp.NewHybrid(bp.NewGshare(8), bp.NewPAs(6, 4, 2), 6) }, g8, pas},
			{fuzzSimSpecs[11], func() bp.ColumnChooser { return bp.NewTournament(6, 6, 8, 6) }, g8, nil},
			{fuzzSimSpecs[11] + " both stored", func() bp.ColumnChooser { return bp.NewTournament(6, 6, 8, 6) }, g8, hitsOf(bp.NewPAs(6, 6, 0))},
		} {
			want := Simulate(tr, []bp.Predictor{c.mk()}, Options{ForceReference: true}).Results[0]
			pt := tr.Packed()
			blk := bp.KernelBlock{IDs: pt.IDs(), Taken: pt.TakenWords(), Back: pt.BackwardWords(), Addrs: pt.Addrs()}
			p := c.mk()
			correct := make([]int32, pt.NumBranches())
			for _, r := range [][2]int{{0, split}, {split, tr.Len()}} {
				blk.Lo, blk.Hi = r[0], r[1]
				p.SimulateColumns(blk, c.a, c.b, correct)
			}
			sameResult(t, c.spec+" over stored columns", want, BranchResult(want.Predictor, tr.Name(), pt.Addrs(), correct, pt.Counts()))
		}
	})
}

// fuzzSweepGrids are FuzzSweep's grids, one builder per fused family and
// a concatenation of them, every table capped at a few KB. Byte pick
// draws the hybrid's bimodal bits (low nibble) and chooser bits (high
// nibble), so the shared bimodal column and the per-config choosers
// alias at sizes the input chooses.
func fuzzSweepGrids(pick byte) map[string]func() bp.SweepKernel {
	bimodal, chooser := 1+uint(pick&15)%10, 1+uint(pick>>4)%8
	gshare := func() bp.SweepKernel { return bp.NewGshareSweep([]uint{1, 4, 10, 7}) }
	bimodalGrid := func() bp.SweepKernel { return bp.NewBimodalSweep([]uint{9, 2, 5}) }
	ifGshare := func() bp.SweepKernel { return bp.NewIFGshareSweep([]uint{1, 5, 12}) }
	ifPAs := func() bp.SweepKernel { return bp.NewIFPAsSweep([]uint{2, 8}) }
	hybrid := func() bp.SweepKernel { return bp.NewHybridSweep([]uint{3, 10, 6}, bimodal, chooser) }
	return map[string]func() bp.SweepKernel{
		"gshare":    gshare,
		"bimodal":   bimodalGrid,
		"if-gshare": ifGshare,
		"if-pas":    ifPAs,
		"hybrid":    hybrid,
		"concat": func() bp.SweepKernel {
			return bp.NewConcatSweep("fuzz-concat", hybrid(), ifGshare(), gshare(), ifPAs(), bimodalGrid())
		},
	}
}

// FuzzSweep checks the fused sweep kernels on traces drawn from the fuzz
// bytes (fuzzSimTrace). For every grid of fuzzSweepGrids, SimulateSweep
// at Parallel 1 and 2 (config shards) must equal per-config
// ForceReference runs of the grid's Configs, and so must the grid's
// SweepBlock over three consecutive blocks split where the input's
// fourth byte says, which lands splits off 64-record words and
// sweepTile tiles.
func FuzzSweep(f *testing.F) {
	f.Add([]byte{5, 0x37, 0x21, 90, 0x80, 3, 0x41, 0x02, 0x80, 5, 0x43, 0x01, 0x44})
	f.Add([]byte{63, 0xf9, 0xff, 201, 0x10, 0x51, 0x92, 7, 0x23, 0x64, 0xa5, 2, 0x06, 0x47, 0x88})
	f.Fuzz(func(t *testing.T, data []byte) {
		tr := fuzzSimTrace(data)
		n := tr.Len()
		var pick, at byte
		if len(data) > 3 {
			pick, at = data[1], data[3]
		}
		s1 := int(at) * n / 255
		s2 := min((s1+n)/2+int(at&7), n)
		pt := tr.Packed()
		blk := bp.KernelBlock{IDs: pt.IDs(), Taken: pt.TakenWords(), Back: pt.BackwardWords(), Addrs: pt.Addrs()}
		for name, mk := range fuzzSweepGrids(pick) {
			g := mk()
			want := make([]int64, len(g.ConfigNames()))
			for c, p := range g.Configs() {
				want[c] = int64(Simulate(tr, []bp.Predictor{p}, Options{ForceReference: true}).Results[0].Correct)
			}
			for _, par := range []int{1, 2} {
				sameSweep(t, fmt.Sprintf("%s parallel=%d", name, par), SimulateSweep(tr, mk(), Options{Parallel: par}), want, n)
			}
			got := make([]int32, len(want))
			for _, r := range [][2]int{{0, s1}, {s1, s2}, {s2, n}} {
				blk.Lo, blk.Hi = r[0], r[1]
				g.SweepBlock(blk, got)
			}
			for c := range want {
				if int64(got[c]) != want[c] {
					t.Errorf("%s blocks split at %d,%d: config %s: %d correct, want %d", name, s1, s2, g.ConfigNames()[c], got[c], want[c])
				}
			}
		}
	})
}
