// Conformance suite for the batched-kernel contract: every predictor
// exposing SimulateBlock must be a bit-identical replacement for its own
// scalar Predict/Update loop — same per-branch correct counts, same
// totals, same state left behind — across randomized traces and
// arbitrary block boundaries. This is the bp-side half of the
// equivalence guarantee the sim package's columnar fast path rests on.
package bp_test

import (
	"fmt"
	"math/rand"
	"testing"

	"branchcorr/internal/bp"
	"branchcorr/internal/trace"
)

// kernelRandomTrace builds a seeded pseudo-random trace with a branch
// population shaped to stress every kernel: mixed biases, backward
// (loop-closing) sites for BTFNT, and enough distinct sites that the
// finite tables (bimodal, PAs BHT, GAs banks) alias.
func kernelRandomTrace(seed int64, n int) *trace.Trace {
	rng := rand.New(rand.NewSource(seed))
	tr := trace.New("kernel-rand", 0)
	type site struct {
		pc       trace.Addr
		bias     float64
		backward bool
	}
	sites := make([]site, 60)
	for i := range sites {
		sites[i] = site{
			pc:       trace.Addr(0x4000 + i*4),
			bias:     rng.Float64(),
			backward: rng.Intn(3) == 0,
		}
	}
	for j := 0; j < n; j++ {
		s := sites[rng.Intn(len(sites))]
		tr.Append(trace.Record{PC: s.pc, Taken: rng.Float64() < s.bias, Backward: s.backward})
	}
	return tr
}

// scalarCounts replays records [lo, hi) through the scalar
// Predict/Update pair and returns per-PC correct counts plus the total.
func scalarCounts(p bp.Predictor, tr *trace.Trace, lo, hi int) (map[trace.Addr]int, int) {
	perPC := make(map[trace.Addr]int)
	total := 0
	pt := tr.Packed()
	for i := lo; i < hi; i++ {
		rec := pt.Record(i)
		pred := p.Predict(rec)
		p.Update(rec)
		if pred == rec.Taken {
			perPC[rec.PC]++
			total++
		}
	}
	return perPC, total
}

// blockOf builds the kernel input for a packed trace over [lo, hi).
func blockOf(pt *trace.Packed, lo, hi int) bp.KernelBlock {
	return bp.KernelBlock{
		IDs:   pt.IDs(),
		Taken: pt.TakenWords(),
		Back:  pt.BackwardWords(),
		Addrs: pt.Addrs(),
		Lo:    lo,
		Hi:    hi,
	}
}

// kernelCounts replays records [lo, hi) through SimulateBlock in chunks
// of the given size and returns per-PC correct counts plus the total.
// Chunked replay catches state that fails to carry across block
// boundaries (history registers, BHT entries).
func kernelCounts(k bp.KernelPredictor, pt *trace.Packed, lo, hi, chunk int) (map[trace.Addr]int, int) {
	correct := make([]int32, pt.NumBranches())
	total := 0
	for at := lo; at < hi; at += chunk {
		end := min(at+chunk, hi)
		total += k.SimulateBlock(blockOf(pt, at, end), correct)
	}
	perPC := make(map[trace.Addr]int)
	for id, c := range correct {
		if c != 0 {
			perPC[pt.AddrOf(int32(id))] = int(c)
		}
	}
	return perPC, total
}

// sameCounts asserts two per-PC correct-count maps and totals agree.
func sameCounts(t *testing.T, ctxt string, wantPC map[trace.Addr]int, wantTotal int, gotPC map[trace.Addr]int, gotTotal int) {
	t.Helper()
	if wantTotal != gotTotal {
		t.Errorf("%s: total correct %d (scalar) vs %d (kernel)", ctxt, wantTotal, gotTotal)
	}
	if len(wantPC) != len(gotPC) {
		t.Errorf("%s: %d branches with correct predictions (scalar) vs %d (kernel)", ctxt, len(wantPC), len(gotPC))
	}
	for pc, want := range wantPC {
		if got := gotPC[pc]; got != want {
			t.Errorf("%s: branch 0x%x: %d correct (scalar) vs %d (kernel)", ctxt, uint32(pc), want, got)
		}
	}
}

// TestKernelScalarConformance replays randomized traces through fresh
// scalar and kernel instances of every registered spec whose predictor
// implements KernelPredictor, at several block-boundary layouts, and
// asserts identical per-branch correct counts and totals. It also pins
// the kernel registry's size: a predictor family gaining or losing its
// kernel shows up in the covered-spec count.
func TestKernelScalarConformance(t *testing.T) {
	stats1 := trace.Summarize(kernelRandomTrace(11, 25_000))
	kernelSpecs := 0
	for _, spec := range bp.KnownSpecs() {
		probe, err := bp.Parse(spec, bp.Env{Stats: stats1})
		if err != nil {
			// Specs needing a profiling trace (profiled-gshare) are
			// covered by the scalar conformance suite; none have kernels.
			continue
		}
		if _, ok := probe.(bp.KernelPredictor); !ok {
			continue
		}
		kernelSpecs++
		spec := spec
		t.Run(spec, func(t *testing.T) {
			for _, seed := range []int64{11, 99} {
				tr := kernelRandomTrace(seed, 25_000)
				pt := tr.Packed()
				stats := trace.Summarize(tr)
				mk := func() bp.KernelPredictor {
					p, err := bp.Parse(spec, bp.Env{Stats: stats, Trace: tr})
					if err != nil {
						t.Fatalf("Parse(%q): %v", spec, err)
					}
					return p.(bp.KernelPredictor)
				}
				wantPC, wantTotal := scalarCounts(mk(), tr, 0, tr.Len())
				// Chunk sizes straddle bitset word boundaries (64) and
				// include a full-trace single block and one past the
				// sweep tile (2048), so a call crosses a tile boundary at
				// an unaligned offset.
				for _, chunk := range []int{tr.Len(), 1000, 63, 2049} {
					gotPC, gotTotal := kernelCounts(mk(), pt, 0, tr.Len(), chunk)
					sameCounts(t, fmt.Sprintf("seed=%d chunk=%d", seed, chunk), wantPC, wantTotal, gotPC, gotTotal)
				}
			}
		})
	}
	// bimodal, gshare, gas, pas, ifgshare, ifpas, taken, not-taken,
	// btfnt, ideal-static, tournament, hybrid.
	if kernelSpecs < 12 {
		t.Errorf("only %d registered specs have batched kernels; the hot set requires at least 12", kernelSpecs)
	}
}

// TestKernelScalarInterleaving drives the first half of a trace through
// the scalar methods and the second half through the kernel (and the
// reverse, and alternating in short runs), asserting the combined counts
// match an all-scalar replay:
// the contract requires SimulateBlock to consume and leave behind
// exactly the scalar state, so the two call styles must compose.
func TestKernelScalarInterleaving(t *testing.T) {
	tr := kernelRandomTrace(7, 20_000)
	pt := tr.Packed()
	stats := trace.Summarize(tr)
	// ifgshare:32 runs the full-width history mask. The combining
	// predictors cover components with no column kernel (loop and btfnt,
	// through their scalar pairs; btfnt reads the backward bits), a
	// kernel-backed component without a column loop (ifpas), and a
	// hybrid nested inside a hybrid.
	specs := []string{"bimodal:10", "gshare:12", "gas:10,3", "pas:10,8,3", "ifgshare:12", "ifgshare:32", "ifpas:12",
		"tournament:10,10,12,12", "hybrid:(gshare:12),(pas:10,8,3),10", "hybrid:(loop),(gshare:12),8",
		"hybrid:(btfnt),(gas:10,3),7", "hybrid:(ifpas:8),(bimodal:10),6",
		"hybrid:(hybrid:(gas:10,3),(bimodal:10),8),(tournament:8,8,10,4),9"}
	for _, spec := range specs {
		spec := spec
		t.Run(spec, func(t *testing.T) {
			mk := func() bp.KernelPredictor {
				p, err := bp.Parse(spec, bp.Env{Stats: stats})
				if err != nil {
					t.Fatal(err)
				}
				return p.(bp.KernelPredictor)
			}
			wantPC, wantTotal := scalarCounts(mk(), tr, 0, tr.Len())
			half := tr.Len() / 2

			p := mk()
			firstPC, firstTotal := scalarCounts(p, tr, 0, half)
			secondPC, secondTotal := kernelCounts(p, pt, half, tr.Len(), 500)
			for pc, c := range secondPC {
				firstPC[pc] += c
			}
			sameCounts(t, "scalar-then-kernel", wantPC, wantTotal, firstPC, firstTotal+secondTotal)

			q := mk()
			kPC, kTotal := kernelCounts(q, pt, 0, half, 500)
			sPC, sTotal := scalarCounts(q, tr, half, tr.Len())
			for pc, c := range sPC {
				kPC[pc] += c
			}
			sameCounts(t, "kernel-then-scalar", wantPC, wantTotal, kPC, kTotal+sTotal)

			// Alternating every 37 records puts a scalar call right
			// after each kernel call, so state the kernel leaves behind
			// is read hundreds of times rather than once.
			r := mk()
			altPC := make(map[trace.Addr]int)
			altTotal := 0
			for lo := 0; lo < tr.Len(); lo += 74 {
				mid, hi := min(lo+37, tr.Len()), min(lo+74, tr.Len())
				kPC, kTotal := kernelCounts(r, pt, lo, mid, 37)
				sPC, sTotal := scalarCounts(r, tr, mid, hi)
				for pc, c := range kPC {
					altPC[pc] += c
				}
				for pc, c := range sPC {
					altPC[pc] += c
				}
				altTotal += kTotal + sTotal
			}
			sameCounts(t, "alternating", wantPC, wantTotal, altPC, altTotal)
		})
	}
}
