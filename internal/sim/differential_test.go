package sim

import (
	"bytes"
	"math/rand"
	"testing"

	"branchcorr/internal/bp"
	"branchcorr/internal/trace"
)

// randomTrace builds a seeded pseudo-random trace whose branch population
// exercises every predictor family: a few dozen static sites, mixed
// biases, backward (loop-closing) sites with bursty runs, and repeated
// PCs so the same-PC encoding path of the codec is hit.
func randomTrace(seed int64, n int) *trace.Trace {
	rng := rand.New(rand.NewSource(seed))
	tr := trace.New("diff", 0)
	type site struct {
		pc       trace.Addr
		bias     float64
		backward bool
	}
	sites := make([]site, 40)
	for i := range sites {
		sites[i] = site{
			pc:       trace.Addr(0x1000 + i*4),
			bias:     rng.Float64(),
			backward: rng.Intn(4) == 0,
		}
	}
	for tr.Len() < n {
		s := sites[rng.Intn(len(sites))]
		// Loop-closing sites emit short taken runs to give the loop and
		// local-history predictors real structure.
		reps := 1
		if s.backward {
			reps = 1 + rng.Intn(6)
		}
		for r := 0; r < reps && tr.Len() < n; r++ {
			taken := rng.Float64() < s.bias
			if s.backward && r < reps-1 {
				taken = true
			}
			tr.Append(trace.Record{PC: s.pc, Taken: taken, Backward: s.backward})
		}
	}
	return tr
}

// sameResult asserts two Results agree on everything: labels, totals,
// and the full per-branch accounting map in both directions.
func sameResult(t *testing.T, ctxt string, a, b *Result) {
	t.Helper()
	if a.Predictor != b.Predictor || a.Trace != b.Trace {
		t.Errorf("%s: labels %q/%q vs %q/%q", ctxt, a.Predictor, a.Trace, b.Predictor, b.Trace)
	}
	if a.Correct != b.Correct || a.Total != b.Total {
		t.Errorf("%s: totals %d/%d vs %d/%d", ctxt, a.Correct, a.Total, b.Correct, b.Total)
	}
	if len(a.PerBranch) != len(b.PerBranch) {
		t.Errorf("%s: per-branch sites %d vs %d", ctxt, len(a.PerBranch), len(b.PerBranch))
	}
	for pc, ba := range a.PerBranch {
		if bb := b.Branch(pc); *ba != bb {
			t.Errorf("%s: branch 0x%x: %+v vs %+v", ctxt, uint32(pc), *ba, bb)
		}
	}
}

// TestDifferentialRunEquivalence pins every driver and engine to the
// reference loop: for every registered predictor spec, the kernel path,
// SimulateBlocks over the encoded trace, and the concurrent fan-out
// produce Results identical to Options.ForceReference — totals and
// per-branch maps — on randomized traces. Each run gets a fresh
// predictor instance, so the test also exercises every spec's
// determinism across constructions.
func TestDifferentialRunEquivalence(t *testing.T) {
	for _, seed := range []int64{1, 42} {
		tr := randomTrace(seed, 15_000)
		var buf bytes.Buffer
		if err := tr.Write(&buf); err != nil {
			t.Fatal(err)
		}
		encoded := buf.Bytes()
		stats := trace.Summarize(tr)
		env := bp.Env{Stats: stats, Trace: tr}

		for _, spec := range bp.KnownSpecs() {
			mk := func() bp.Predictor {
				p, err := bp.Parse(spec, env)
				if err != nil {
					t.Fatalf("spec %q: %v", spec, err)
				}
				return p
			}
			ref := Simulate(tr, []bp.Predictor{mk()}, Options{ForceReference: true}).Results[0]

			fast := Simulate(tr, []bp.Predictor{mk()}, Options{}).Results[0]
			sameResult(t, spec+"/fast", ref, fast)

			src, err := trace.ReadBlocks(bytes.NewReader(encoded), 1000)
			if err != nil {
				t.Fatal(err)
			}
			streamed, err := SimulateBlocks(src, []bp.Predictor{mk()}, Options{})
			if err != nil {
				t.Fatalf("spec %q: SimulateBlocks: %v", spec, err)
			}
			// Streamed results carry the stream's name, which round-trips
			// through the codec and must match the trace's.
			sameResult(t, spec+"/stream", ref, streamed.Results[0])

			concurrent := Simulate(tr, []bp.Predictor{mk()}, Options{Parallel: -1}).Results
			sameResult(t, spec+"/concurrent", ref, concurrent[0])

			if seed == 1 && ref.Total != tr.Len() {
				t.Errorf("spec %q: accounted %d of %d branches", spec, ref.Total, tr.Len())
			}
		}
	}
}

// TestDifferentialMultiPredictor drives several predictors through one
// sequential and one fanned-out pass: result order must follow argument order and
// every predictor must match its solo run.
func TestDifferentialMultiPredictor(t *testing.T) {
	tr := randomTrace(7, 10_000)
	specs := []string{"gshare:12", "pas:8,8,2", "loop", "tage", "perceptron:16,8"}
	mk := func() []bp.Predictor {
		ps := make([]bp.Predictor, len(specs))
		for i, s := range specs {
			p, err := bp.Parse(s, bp.Env{})
			if err != nil {
				t.Fatal(err)
			}
			ps[i] = p
		}
		return ps
	}
	batch := Simulate(tr, mk(), Options{}).Results
	conc := Simulate(tr, mk(), Options{Parallel: -1}).Results
	for i, spec := range specs {
		solo := Simulate(tr, []bp.Predictor{mk()[i]}, Options{}).Results[0]
		sameResult(t, spec+"/batch-vs-solo", solo, batch[i])
		sameResult(t, spec+"/concurrent-vs-solo", solo, conc[i])
	}
}
