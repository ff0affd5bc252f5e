package bp_test

import (
	"fmt"
	"testing"

	"branchcorr/internal/bp"
	"branchcorr/internal/trace"
)

// scalarHits replays the whole trace through p's scalar Predict/Update
// pair and returns its hit column: bit i set iff record i was predicted
// correctly.
func scalarHits(p bp.Predictor, tr *trace.Trace) []uint64 {
	pt := tr.Packed()
	hits := make([]uint64, (tr.Len()+63)/64)
	for i := 0; i < tr.Len(); i++ {
		rec := pt.Record(i)
		if p.Predict(rec) == rec.Taken {
			hits[i>>6] |= 1 << (uint(i) & 63)
		}
		p.Update(rec)
	}
	return hits
}

// chooserChunks are the call layouts the chooser differentials replay a
// trace in: one call, chunks whose bounds fall off 64-bit word
// boundaries, and chunks one past the sweep tile (2048), so calls
// straddle tile boundaries at unaligned offsets. Every layout after the
// first carries the tournament's history register across calls.
var chooserChunks = []int{0, 63, 1000, 2049, 4097}

// TestSimulateColumnMatchesScalar pins every column kernel's hit column
// against the scalar replay, at every chunk layout: the bits of each
// call's range must equal the scalar hits, the words a call covers must
// hold no bits outside its range even when they held garbage before,
// and the correct counts must match SimulateBlock's contract.
func TestSimulateColumnMatchesScalar(t *testing.T) {
	tr := kernelRandomTrace(5, 12_000)
	pt := tr.Packed()
	stats := trace.Summarize(tr)
	specs := []string{"bimodal:10", "gshare:12", "gas:10,3", "pas:10,8,3", "ifgshare:12", "ifgshare:32",
		"hybrid:(gshare:12),(pas:10,8,3),10", "tournament:10,10,12,12", "hybrid:(ifgshare:10),(bimodal:8),6"}
	for _, spec := range specs {
		t.Run(spec, func(t *testing.T) {
			mk := func() bp.Predictor {
				p, err := bp.Parse(spec, bp.Env{Stats: stats})
				if err != nil {
					t.Fatal(err)
				}
				if !bp.HasColumn(p) {
					t.Fatalf("%s has no column kernel", spec)
				}
				return p
			}
			want := scalarHits(mk(), tr)
			wantPC, wantTotal := scalarCounts(mk(), tr, 0, tr.Len())
			for _, chunk := range chooserChunks {
				if chunk == 0 {
					chunk = tr.Len()
				}
				p := mk()
				correct := make([]int32, pt.NumBranches())
				total := 0
				for lo := 0; lo < tr.Len(); lo += chunk {
					hi := min(lo+chunk, tr.Len())
					words := make([]uint64, (hi-1)>>6-lo>>6+1)
					for k := range words {
						words[k] = ^uint64(0)
					}
					total += bp.SimulateColumn(p, blockOf(pt, lo, hi), correct, words)
					for i := lo &^ 63; i < (hi-1)|63+1; i++ {
						got := words[i>>6-lo>>6] >> (uint(i) & 63) & 1
						wantBit := uint64(0)
						if i >= lo && i < hi {
							wantBit = want[i>>6] >> (uint(i) & 63) & 1
						}
						if got != wantBit {
							t.Fatalf("chunk=%d call [%d,%d): bit %d = %d, want %d", chunk, lo, hi, i, got, wantBit)
						}
					}
				}
				gotPC := make(map[trace.Addr]int)
				for id, c := range correct {
					if c != 0 {
						gotPC[pt.AddrOf(int32(id))] = int(c)
					}
				}
				sameCounts(t, fmt.Sprintf("chunk=%d", chunk), wantPC, wantTotal, gotPC, total)
			}
		})
	}
}

// TestChooserOverStoredColumns pins the choosers over stored component
// columns against SimulateBlock (components on their kernels) and the
// scalar loop. The stored columns come from scalar replays of fresh
// components of the same configuration, each side stored alone and
// both together (the tournament's local side nil is the report's
// case), at every chunk layout: word-unaligned bounds, tile-straddling
// calls, and the tournament's history register carried across calls.
func TestChooserOverStoredColumns(t *testing.T) {
	tr := kernelRandomTrace(17, 15_000)
	pt := tr.Packed()
	cases := []struct {
		name string
		mk   func() bp.ColumnChooser
		a, b func() bp.Predictor // fresh components, chooser order
	}{
		{"hybrid",
			func() bp.ColumnChooser { return bp.NewHybrid(bp.NewGshare(12), bp.NewPAs(10, 8, 3), 10) },
			func() bp.Predictor { return bp.NewGshare(12) },
			func() bp.Predictor { return bp.NewPAs(10, 8, 3) }},
		{"hybrid-if",
			func() bp.ColumnChooser { return bp.NewHybrid(bp.NewIFGshare(10), bp.NewBimodal(8), 6) },
			func() bp.Predictor { return bp.NewIFGshare(10) },
			func() bp.Predictor { return bp.NewBimodal(8) }},
		{"tournament",
			func() bp.ColumnChooser { return bp.NewTournament(10, 10, 12, 12) },
			func() bp.Predictor { return bp.NewGshare(12) },
			func() bp.Predictor { return bp.NewPAs(10, 10, 0) }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			wantPC, wantTotal := scalarCounts(c.mk(), tr, 0, tr.Len())
			colA, colB := scalarHits(c.a(), tr), scalarHits(c.b(), tr)
			for _, chunk := range chooserChunks {
				if chunk == 0 {
					chunk = tr.Len()
				}
				gotPC, gotTotal := kernelCounts(c.mk(), pt, 0, tr.Len(), chunk)
				sameCounts(t, fmt.Sprintf("SimulateBlock chunk=%d", chunk), wantPC, wantTotal, gotPC, gotTotal)
				for _, stored := range []struct {
					name string
					a, b []uint64
				}{{"a", colA, nil}, {"b", nil, colB}, {"both", colA, colB}} {
					p := c.mk()
					correct := make([]int32, pt.NumBranches())
					total := 0
					for lo := 0; lo < tr.Len(); lo += chunk {
						total += p.SimulateColumns(blockOf(pt, lo, min(lo+chunk, tr.Len())), stored.a, stored.b, correct)
					}
					gotPC := make(map[trace.Addr]int)
					for id, n := range correct {
						if n != 0 {
							gotPC[pt.AddrOf(int32(id))] = int(n)
						}
					}
					sameCounts(t, fmt.Sprintf("stored=%s chunk=%d", stored.name, chunk), wantPC, wantTotal, gotPC, total)
				}
			}
		})
	}
}
