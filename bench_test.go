// Package branchcorr's root benchmark harness: one benchmark per table
// and figure of the paper (regenerating the exhibit end-to-end at a
// bench-scale trace length) plus ablation benchmarks for the design
// choices DESIGN.md calls out, and microbenchmarks of the predictors
// themselves.
//
// Accuracy numbers are attached to every exhibit benchmark as custom
// metrics (%acc-*), so `go test -bench=.` doubles as a quick-look
// reproduction at reduced scale; cmd/experiments produces the full-scale
// exhibits.
package branchcorr

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"branchcorr/internal/bp"
	"branchcorr/internal/core"
	"branchcorr/internal/experiments"
	"branchcorr/internal/obs"
	"branchcorr/internal/runner"
	"branchcorr/internal/sim"
	"branchcorr/internal/trace"
	"branchcorr/internal/workloads"
)

// benchLength keeps each exhibit benchmark in the seconds range; the
// full-scale runs live in cmd/experiments.
const benchLength = 100_000

// benchSuite caches one suite across benchmarks (trace generation and
// oracle passes dominate otherwise).
var benchSuite *experiments.Suite

func suite(b *testing.B) *experiments.Suite {
	b.Helper()
	if benchSuite == nil {
		s, err := experiments.NewSuite(experiments.Config{
			Length:      benchLength,
			Fig5Windows: []int{8, 16, 24},
		}, nil)
		if err != nil {
			b.Fatal(err)
		}
		benchSuite = s
	}
	return benchSuite
}

// benchTraces caches raw traces for the micro/ablation benchmarks.
var benchTraces = map[string]*trace.Trace{}

func benchTrace(b *testing.B, name string) *trace.Trace {
	b.Helper()
	if tr, ok := benchTraces[name]; ok {
		return tr
	}
	w, err := workloads.ByName(name)
	if err != nil {
		b.Fatal(err)
	}
	tr := w.Generate(benchLength)
	benchTraces[name] = tr
	return tr
}

// benchParallelConfig is the report configuration the parallel-runner
// benchmarks regenerate end to end: four workloads (the hardest plus
// three with different cost profiles) and a two-point Figure 5 sweep, so
// every exhibit including the oracle-heavy paths runs at bench scale.
func benchParallelConfig() experiments.Config {
	return experiments.Config{
		Length:      benchLength / 2,
		Workloads:   []string{"gcc", "perl", "compress", "ijpeg"},
		Fig5Windows: []int{8, 16},
	}
}

// BenchmarkParallelReport regenerates the full report through the
// (exhibit × workload) cell runner, one sub-benchmark per parallelism
// level (BENCH_parallel.json-friendly: sequential vs parallel time/op is
// the suite's wall-clock speedup). Each iteration builds a fresh suite
// outside the timer so the memoized per-trace artifacts are recomputed —
// the benchmark measures the report, not the cache. Per-cell wall time
// is injected via the runner's Observer hook and reported as custom
// metrics; the runner itself never reads the clock (bplint det-time).
func BenchmarkParallelReport(b *testing.B) {
	levels := []int{1, runtime.GOMAXPROCS(0)}
	if levels[1] == 1 {
		levels = levels[:1] // single-core machine: parallel=N duplicates parallel=1
	}
	for _, par := range levels {
		b.Run(fmt.Sprintf("parallel=%d", par), func(b *testing.B) {
			var cellNanos, cellCount, maxCellNanos atomic.Int64
			observe := func(runner.Cell) func(error) {
				start := time.Now()
				return func(error) {
					d := time.Since(start).Nanoseconds()
					cellNanos.Add(d)
					cellCount.Add(1)
					for {
						old := maxCellNanos.Load()
						if d <= old || maxCellNanos.CompareAndSwap(old, d) {
							break
						}
					}
				}
			}
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				s, err := experiments.NewSuite(benchParallelConfig(), nil)
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				if _, err := s.BuildReport(context.Background(), nil, runner.Options{Parallel: par, Observer: observe}); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(cellCount.Load())/float64(b.N), "cells")
			b.ReportMetric(float64(cellNanos.Load())/float64(cellCount.Load())/1e6, "ms/cell-avg")
			b.ReportMetric(float64(maxCellNanos.Load())/1e6, "ms/cell-max")
		})
	}
}

// BenchmarkParallelSpeedup measures the sequential and parallel report
// back to back on fresh suites and reports the wall-clock ratio as an
// explicit x-speedup metric (the acceptance number for the parallel
// scheduler: ≥2 on a 4-core runner; 1.0 by construction on one core).
func BenchmarkParallelSpeedup(b *testing.B) {
	par := runtime.GOMAXPROCS(0)
	measure := func(parallel int) time.Duration {
		s, err := experiments.NewSuite(benchParallelConfig(), nil)
		if err != nil {
			b.Fatal(err)
		}
		start := time.Now()
		if _, err := s.BuildReport(context.Background(), nil, runner.Options{Parallel: parallel}); err != nil {
			b.Fatal(err)
		}
		return time.Since(start)
	}
	var seq, conc time.Duration
	for i := 0; i < b.N; i++ {
		seq += measure(1)
		conc += measure(par)
	}
	b.ReportMetric(seq.Seconds()/conc.Seconds(), "x-speedup")
	b.ReportMetric(seq.Seconds()/float64(b.N), "s/seq-report")
	b.ReportMetric(conc.Seconds()/float64(b.N), "s/par-report")
}

// BenchmarkTable1TraceGeneration regenerates Table 1's inputs: all eight
// workload traces.
func BenchmarkTable1TraceGeneration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		total := 0
		for _, w := range workloads.All() {
			total += w.Generate(benchLength).Len()
		}
		if total != 8*benchLength {
			b.Fatalf("generated %d branches", total)
		}
	}
	b.ReportMetric(float64(8*benchLength*b.N)/b.Elapsed().Seconds(), "branches/s")
}

// BenchmarkFigure4SelectiveHistory regenerates Figure 4 (selective
// histories vs gshare and IF-gshare).
func BenchmarkFigure4SelectiveHistory(b *testing.B) {
	s := suite(b)
	var r *experiments.Figure4Result
	for i := 0; i < b.N; i++ {
		r = s.Figure4()
	}
	for _, row := range r.Rows {
		if row.Benchmark == "gcc" {
			b.ReportMetric(100*row.Sel[3], "%acc-sel3-gcc")
			b.ReportMetric(100*row.IFGshare, "%acc-ifgshare-gcc")
		}
	}
}

// BenchmarkFigure5HistoryLength regenerates Figure 5 (accuracy vs history
// window length).
func BenchmarkFigure5HistoryLength(b *testing.B) {
	s := suite(b)
	var r *experiments.Figure5Result
	for i := 0; i < b.N; i++ {
		r = s.Figure5()
	}
	b.ReportMetric(100*r.Acc[0][len(r.Windows)-1], "%acc-longest-window")
}

// BenchmarkTable2GshareCorr regenerates Table 2 (gshare w/ and w/o the
// strongest correlation).
func BenchmarkTable2GshareCorr(b *testing.B) {
	s := suite(b)
	var r *experiments.Table2Result
	for i := 0; i < b.N; i++ {
		r = s.Table2()
	}
	for _, row := range r.Rows {
		if row.Benchmark == "gcc" {
			b.ReportMetric(100*(row.GshareCorr-row.Gshare), "pp-gain-gcc")
		}
	}
}

// BenchmarkFigure6Classes regenerates Figure 6 (per-address
// predictability class distribution).
func BenchmarkFigure6Classes(b *testing.B) {
	s := suite(b)
	var r *experiments.Figure6Result
	for i := 0; i < b.N; i++ {
		r = s.Figure6()
	}
	avgLoop := 0.0
	for _, row := range r.Rows {
		avgLoop += row.Frac[core.ClassLoop]
	}
	b.ReportMetric(100*avgLoop/float64(len(r.Rows)), "%loop-class-avg")
}

// BenchmarkTable3PAsLoop regenerates Table 3 (PAs w/ and w/o the loop
// enhancement).
func BenchmarkTable3PAsLoop(b *testing.B) {
	s := suite(b)
	var r *experiments.Table3Result
	for i := 0; i < b.N; i++ {
		r = s.Table3()
	}
	gain := 0.0
	for _, row := range r.Rows {
		gain += row.PAsLoop - row.PAs
	}
	b.ReportMetric(100*gain/float64(len(r.Rows)), "pp-gain-avg")
}

// BenchmarkFigure7BestPredictor regenerates Figure 7 (gshare vs PAs vs
// ideal static distribution).
func BenchmarkFigure7BestPredictor(b *testing.B) {
	s := suite(b)
	var r *experiments.SplitResult
	for i := 0; i < b.N; i++ {
		r = s.Figure7()
	}
	avg := 0.0
	for _, row := range r.Rows {
		avg += row.Frac[core.CatStatic]
	}
	b.ReportMetric(100*avg/float64(len(r.Rows)), "%static-best-avg")
}

// BenchmarkFigure8BestClass regenerates Figure 8 (predictability-class
// distribution).
func BenchmarkFigure8BestClass(b *testing.B) {
	s := suite(b)
	var r *experiments.SplitResult
	for i := 0; i < b.N; i++ {
		r = s.Figure8()
	}
	avg := 0.0
	for _, row := range r.Rows {
		avg += row.Frac[core.CatStatic]
	}
	b.ReportMetric(100*avg/float64(len(r.Rows)), "%static-best-avg")
}

// BenchmarkFigure9Percentile regenerates Figure 9 (gshare − PAs accuracy
// percentile curves).
func BenchmarkFigure9Percentile(b *testing.B) {
	s := suite(b)
	var r *experiments.Figure9Result
	for i := 0; i < b.N; i++ {
		var err error
		r, err = s.Figure9()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(r.Diff[0][len(r.Diff[0])-1], "pp-gshare-best-tail")
}

// BenchmarkExtensionInPath regenerates the in-path correlation
// decomposition (extension exhibit; section 3.1's two correlation
// kinds).
func BenchmarkExtensionInPath(b *testing.B) {
	s := suite(b)
	var r *experiments.InPathResult
	for i := 0; i < b.N; i++ {
		r = s.InPath()
	}
	gap := 0.0
	for _, row := range r.Rows {
		gap += row.Presence - row.Static
	}
	b.ReportMetric(100*gap/float64(len(r.Rows)), "pp-inpath-avg")
}

// BenchmarkExtensionOnlineSelective compares the practical online
// correlation-selecting predictor against the oracle-selected selective
// history and gshare — how much of the paper's oracle headroom a
// profile-free implementation recovers.
func BenchmarkExtensionOnlineSelective(b *testing.B) {
	for _, name := range []string{"gcc", "compress"} {
		tr := benchTrace(b, name)
		b.Run("oracle-"+name, func(b *testing.B) {
			var acc float64
			for i := 0; i < b.N; i++ {
				sels := core.Oracle(tr, core.OracleOptions{OracleConfig: core.OracleConfig{WindowLen: 16}})
				acc = sim.Simulate(tr, []bp.Predictor{core.NewSelective("sel3", 16, sels.BySize[3])}, sim.Options{}).Results[0].Accuracy()
			}
			b.ReportMetric(100*acc, "%acc")
		})
		b.Run("online-"+name, func(b *testing.B) {
			var acc float64
			for i := 0; i < b.N; i++ {
				acc = sim.Simulate(tr, []bp.Predictor{core.NewOnlineSelective(3, 16, 256)}, sim.Options{}).Results[0].Accuracy()
			}
			b.ReportMetric(100*acc, "%acc")
		})
		b.Run("gshare-"+name, func(b *testing.B) {
			var acc float64
			for i := 0; i < b.N; i++ {
				acc = sim.Simulate(tr, []bp.Predictor{bp.NewGshare(16)}, sim.Options{}).Results[0].Accuracy()
			}
			b.ReportMetric(100*acc, "%acc")
		})
	}
}

// BenchmarkExtensionContextSwitch measures the multiprogramming effect:
// gshare accuracy on each workload alone vs interleaved with another
// workload at a context-switch quantum, and the same for IF-gshare
// (whose per-branch tables rule out cross-program PHT aliasing but still
// suffer global-history pollution at switch points).
func BenchmarkExtensionContextSwitch(b *testing.B) {
	gcc := benchTrace(b, "gcc")
	perl := benchTrace(b, "perl")
	mixed := trace.Interleave("gcc+perl", 5000, gcc, perl)
	mixedFine := trace.Interleave("gcc+perl-fine", 250, gcc, perl)
	accOn := func(p bp.Predictor, tr *trace.Trace, prefix trace.Addr) float64 {
		res := sim.Simulate(tr, []bp.Predictor{p}, sim.Options{}).Results[0]
		correct, total := 0, 0
		for pc, br := range res.PerBranch {
			if pc&0xFF00_0000 == uint32HighBits(prefix) {
				correct += br.Correct
				total += br.Total
			}
		}
		return float64(correct) / float64(total)
	}
	cases := []struct {
		name string
		run  func() float64
	}{
		{"gshare-gcc-alone", func() float64 {
			return sim.Simulate(gcc, []bp.Predictor{bp.NewGshare(14)}, sim.Options{}).Results[0].Accuracy()
		}},
		{"gshare-gcc-mixed-q5000", func() float64 { return accOn(bp.NewGshare(14), mixed, 0x0200_0000) }},
		{"gshare-gcc-mixed-q250", func() float64 { return accOn(bp.NewGshare(14), mixedFine, 0x0200_0000) }},
		{"ifgshare-gcc-alone", func() float64 {
			return sim.Simulate(gcc, []bp.Predictor{bp.NewIFGshare(14)}, sim.Options{}).Results[0].Accuracy()
		}},
		{"ifgshare-gcc-mixed-q250", func() float64 { return accOn(bp.NewIFGshare(14), mixedFine, 0x0200_0000) }},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			var acc float64
			for i := 0; i < b.N; i++ {
				acc = c.run()
			}
			b.ReportMetric(100*acc, "%acc")
		})
	}
}

func uint32HighBits(a trace.Addr) trace.Addr { return a & 0xFF00_0000 }

// BenchmarkAblationOracleTopK sweeps the oracle beam width (DESIGN.md §2
// substitution): quality and cost of the top-K candidate beam.
func BenchmarkAblationOracleTopK(b *testing.B) {
	tr := benchTrace(b, "gcc")
	for _, k := range []int{4, 8, 16, 32} {
		b.Run(fmt.Sprintf("K=%d", k), func(b *testing.B) {
			var acc float64
			for i := 0; i < b.N; i++ {
				sels := core.Oracle(tr, core.OracleOptions{OracleConfig: core.OracleConfig{WindowLen: 16, TopK: k}})
				r := sim.Simulate(tr, []bp.Predictor{core.NewSelective("sel3", 16, sels.BySize[3])}, sim.Options{}).Results[0]
				acc = r.Accuracy()
			}
			b.ReportMetric(100*acc, "%acc-sel3")
		})
	}
}

// BenchmarkAblationTagSchemes compares the two instance-tagging schemes
// of section 3.2 (occurrence index vs backward-branch count) against
// using both.
func BenchmarkAblationTagSchemes(b *testing.B) {
	tr := benchTrace(b, "compress")
	cases := []struct {
		name    string
		schemes []core.Scheme
	}{
		{"occurrence-only", []core.Scheme{core.Occurrence}},
		{"backward-only", []core.Scheme{core.BackwardCount}},
		{"both", nil},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			var acc float64
			for i := 0; i < b.N; i++ {
				cfg := core.OracleConfig{WindowLen: 16, Schemes: c.schemes}
				sels := core.Oracle(tr, core.OracleOptions{OracleConfig: cfg})
				r := sim.Simulate(tr, []bp.Predictor{core.NewSelective("sel3", 16, sels.BySize[3])}, sim.Options{}).Results[0]
				acc = r.Accuracy()
			}
			b.ReportMetric(100*acc, "%acc-sel3")
		})
	}
}

// BenchmarkAblationGshareHistory sweeps the gshare history length
// (section 3.6.2's discussion: longer gshare histories mostly reduce
// interference rather than add correlation).
func BenchmarkAblationGshareHistory(b *testing.B) {
	tr := benchTrace(b, "gcc")
	for _, bits := range []uint{8, 12, 16, 20} {
		b.Run(fmt.Sprintf("bits=%d", bits), func(b *testing.B) {
			var acc float64
			for i := 0; i < b.N; i++ {
				acc = sim.Simulate(tr, []bp.Predictor{bp.NewGshare(bits)}, sim.Options{}).Results[0].Accuracy()
			}
			b.ReportMetric(100*acc, "%acc")
		})
	}
}

// BenchmarkAblationPathVsPattern compares Nair-style path history to
// outcome (pattern) history at equal PHT size (sections 2.1/3.1: path
// history captures in-path correlation directly).
func BenchmarkAblationPathVsPattern(b *testing.B) {
	tr := benchTrace(b, "go")
	cases := []struct {
		name string
		mk   func() bp.Predictor
	}{
		{"pattern-gshare", func() bp.Predictor { return bp.NewGshare(14) }},
		{"path-depth4", func() bp.Predictor { return bp.NewPath(4, 14) }},
		{"path-depth8", func() bp.Predictor { return bp.NewPath(8, 14) }},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			var acc float64
			for i := 0; i < b.N; i++ {
				acc = sim.Simulate(tr, []bp.Predictor{c.mk()}, sim.Options{}).Results[0].Accuracy()
			}
			b.ReportMetric(100*acc, "%acc")
		})
	}
}

// BenchmarkAblationLoopBTB compares the paper's perfect-BTB loop
// predictor against finite set-associative BTBs (section 4.1.1's
// idealization, quantified).
func BenchmarkAblationLoopBTB(b *testing.B) {
	tr := benchTrace(b, "ijpeg")
	cases := []struct {
		name string
		mk   func() bp.Predictor
	}{
		{"perfect", func() bp.Predictor { return bp.NewLoop() }},
		{"64set-4way", func() bp.Predictor { return bp.NewFiniteLoop(6, 4) }},
		{"16set-2way", func() bp.Predictor { return bp.NewFiniteLoop(4, 2) }},
		{"4set-1way", func() bp.Predictor { return bp.NewFiniteLoop(2, 1) }},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			var acc float64
			for i := 0; i < b.N; i++ {
				acc = sim.Simulate(tr, []bp.Predictor{c.mk()}, sim.Options{}).Results[0].Accuracy()
			}
			b.ReportMetric(100*acc, "%acc")
		})
	}
}

// BenchmarkAblationStaticPHT compares a statically-filled (profiled)
// gshare PHT against the adaptive 2-bit-counter PHT on the same
// profiling/testing set — the Sechrest/Young observation the paper cites
// in section 2.2.
func BenchmarkAblationStaticPHT(b *testing.B) {
	for _, name := range []string{"gcc", "m88ksim"} {
		tr := benchTrace(b, name)
		b.Run("profiled-"+name, func(b *testing.B) {
			var acc float64
			for i := 0; i < b.N; i++ {
				acc = sim.Simulate(tr, []bp.Predictor{bp.NewProfiledGshare(tr, 14)}, sim.Options{}).Results[0].Accuracy()
			}
			b.ReportMetric(100*acc, "%acc")
		})
		b.Run("adaptive-"+name, func(b *testing.B) {
			var acc float64
			for i := 0; i < b.N; i++ {
				acc = sim.Simulate(tr, []bp.Predictor{bp.NewGshare(14)}, sim.Options{}).Results[0].Accuracy()
			}
			b.ReportMetric(100*acc, "%acc")
		})
	}
}

// BenchmarkAblationModern pits the paper-era predictors against the
// designs the paper's insight led to (perceptron, TAGE) at comparable
// storage, on the hardest workload.
func BenchmarkAblationModern(b *testing.B) {
	tr := benchTrace(b, "go")
	cases := []struct {
		name string
		mk   func() bp.Predictor
	}{
		{"gshare14", func() bp.Predictor { return bp.NewGshare(14) }},
		{"hybrid", func() bp.Predictor {
			return bp.NewHybrid(bp.NewGshare(13), bp.NewPAs(10, 10, 4), 12)
		}},
		{"perceptron", func() bp.Predictor { return bp.NewPerceptron(24, 9) }},
		{"tage", func() bp.Predictor { return bp.NewTAGEDefault() }},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			var acc float64
			for i := 0; i < b.N; i++ {
				acc = sim.Simulate(tr, []bp.Predictor{c.mk()}, sim.Options{}).Results[0].Accuracy()
			}
			b.ReportMetric(100*acc, "%acc")
		})
	}
}

// BenchmarkPredictors measures raw predictor throughput
// (predict+update per branch) on a gcc-like trace.
func BenchmarkPredictors(b *testing.B) {
	tr := benchTrace(b, "gcc")
	recs := tr.Records()
	cases := []struct {
		name string
		mk   func(st *trace.Stats) bp.Predictor
	}{
		{"bimodal", func(*trace.Stats) bp.Predictor { return bp.NewBimodal(14) }},
		{"gshare", func(*trace.Stats) bp.Predictor { return bp.NewGshare(16) }},
		{"gas", func(*trace.Stats) bp.Predictor { return bp.NewGAs(12, 4) }},
		{"pas", func(*trace.Stats) bp.Predictor { return bp.NewPAs(12, 10, 6) }},
		{"ifgshare", func(*trace.Stats) bp.Predictor { return bp.NewIFGshare(16) }},
		{"ifpas", func(*trace.Stats) bp.Predictor { return bp.NewIFPAs(16) }},
		{"path", func(*trace.Stats) bp.Predictor { return bp.NewPath(8, 14) }},
		{"loop", func(*trace.Stats) bp.Predictor { return bp.NewLoop() }},
		{"block", func(*trace.Stats) bp.Predictor { return bp.NewBlock() }},
		{"hybrid", func(*trace.Stats) bp.Predictor {
			return bp.NewHybrid(bp.NewGshare(16), bp.NewPAs(12, 10, 6), 12)
		}},
		{"ideal-static", func(st *trace.Stats) bp.Predictor { return bp.NewIdealStatic(st) }},
		{"perceptron", func(*trace.Stats) bp.Predictor { return bp.NewPerceptron(24, 10) }},
		{"tage", func(*trace.Stats) bp.Predictor { return bp.NewTAGEDefault() }},
	}
	stats := trace.Summarize(tr)
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			p := c.mk(stats)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r := recs[i%len(recs)]
				p.Predict(r)
				p.Update(r)
			}
		})
	}
}

// BenchmarkSelectivePredictor measures the selective predictor's
// throughput (window resolution dominates).
func BenchmarkSelectivePredictor(b *testing.B) {
	tr := benchTrace(b, "gcc")
	recs := tr.Records()
	sels := core.Oracle(tr, core.OracleOptions{OracleConfig: core.OracleConfig{WindowLen: 16}})
	p := core.NewSelective("sel3", 16, sels.BySize[3])
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := recs[i%len(recs)]
		p.Predict(r)
		p.Update(r)
	}
}

// BenchmarkOraclePasses measures the oracle profiling cost per trace
// branch.
func BenchmarkOraclePasses(b *testing.B) {
	tr := benchTrace(b, "gcc")
	for i := 0; i < b.N; i++ {
		core.Oracle(tr, core.OracleOptions{OracleConfig: core.OracleConfig{WindowLen: 16}})
	}
	b.ReportMetric(float64(tr.Len()*b.N)/b.Elapsed().Seconds(), "branches/s")
}

// benchOracleLengths are the trace scales for the columnar-kernel
// benchmarks: the standard bench scale, and the paper-scale 1M-branch
// suite that BENCH_oracle.json's acceptance speedup is recorded at.
var benchOracleLengths = []int{benchLength, 1_000_000}

// benchTracesN caches traces at non-standard lengths for the oracle
// kernel benchmarks.
var benchTracesN = map[string]*trace.Trace{}

func benchTraceN(b *testing.B, name string, n int) *trace.Trace {
	b.Helper()
	key := fmt.Sprintf("%s/%d", name, n)
	if tr, ok := benchTracesN[key]; ok {
		return tr
	}
	w, err := workloads.ByName(name)
	if err != nil {
		b.Fatal(err)
	}
	tr := w.Generate(n)
	benchTracesN[key] = tr
	return tr
}

// BenchmarkPackedTraceBuild measures trace.Pack — the one-time cost of
// the columnar view the oracle kernels amortize across passes.
func BenchmarkPackedTraceBuild(b *testing.B) {
	for _, n := range benchOracleLengths {
		tr := benchTraceN(b, "gcc", n)
		b.Run(fmt.Sprintf("len=%d", n), func(b *testing.B) {
			var pt *trace.Packed
			for i := 0; i < b.N; i++ {
				pt = trace.Pack(tr)
			}
			if pt.Len() != tr.Len() {
				b.Fatalf("packed %d of %d records", pt.Len(), tr.Len())
			}
			b.ReportMetric(float64(tr.Len()*b.N)/b.Elapsed().Seconds(), "branches/s")
		})
	}
}

// BenchmarkOracleProfile measures oracle pass 1 (candidate profiling):
// the pre-kernel reference against the columnar kernel over a pre-built
// packed view. The impl=ref / impl=kernel pair at each length is the
// speedup BENCH_oracle.json records.
func BenchmarkOracleProfile(b *testing.B) {
	cfg := core.OracleConfig{WindowLen: 16}
	for _, n := range benchOracleLengths {
		tr := benchTraceN(b, "gcc", n)
		pt := trace.Pack(tr)
		b.Run(fmt.Sprintf("len=%d/impl=ref", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				core.ReferenceProfileCandidates(tr, cfg)
			}
			b.ReportMetric(float64(tr.Len()*b.N)/b.Elapsed().Seconds(), "branches/s")
		})
		b.Run(fmt.Sprintf("len=%d/impl=kernel", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				core.Oracle(pt, core.OracleOptions{OracleConfig: cfg, Stage: core.StageProfile})
			}
			b.ReportMetric(float64(tr.Len()*b.N)/b.Elapsed().Seconds(), "branches/s")
		})
	}
}

// BenchmarkOracleJoint measures oracle passes 2+3 (pair/triple subset
// scoring) from a fixed candidate beam: the reference's two jointPass
// trace streams against the kernel's single collection stream into
// per-branch state histograms plus scoring over their entries.
func BenchmarkOracleJoint(b *testing.B) {
	cfg := core.OracleConfig{WindowLen: 16}
	for _, n := range benchOracleLengths {
		tr := benchTraceN(b, "gcc", n)
		pt := trace.Pack(tr)
		cands := core.Oracle(pt, core.OracleOptions{OracleConfig: cfg, Stage: core.StageProfile}).Candidates
		b.Run(fmt.Sprintf("len=%d/impl=ref", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				core.ReferenceSelectRefs(tr, cands, cfg)
			}
			b.ReportMetric(float64(tr.Len()*b.N)/b.Elapsed().Seconds(), "branches/s")
		})
		b.Run(fmt.Sprintf("len=%d/impl=kernel", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				core.Oracle(pt, core.OracleOptions{OracleConfig: cfg, Stage: core.StageSelect, Candidates: cands})
			}
			b.ReportMetric(float64(tr.Len()*b.N)/b.Elapsed().Seconds(), "branches/s")
		})
	}
}

// benchFig5Windows are the six Figure 5 windows the suite selects for in
// one shared oracle pass (the default window 16 comes from the shared
// bundle).
var benchFig5Windows = []int{8, 12, 20, 24, 28, 32}

// BenchmarkOracleWindows measures the Figure 5 oracle workload on the
// gcc trace at 200k and 1M branches: the per-window loop (one full
// Oracle run per window) against one core.OracleWindows call sharing
// both trace walks across the six windows, plus the Figure 5 fused
// selective sweep over all seven windows' selections. branches/s is
// trace branches per wall second (windows or configs not multiplied
// in), so the loop/shared pair at each length is the shared pass's
// speedup directly.
//
// The trace=rand2000 level runs the same shared pass and sweep over a
// high-entropy random trace of 50k branches across 2000 sites, where no
// path signature repeats: it records what the path-signature memo costs
// when it cannot help (its bypass), next to gcc where it does. (The
// oracle itself is slow there — each branch's candidate table holds
// thousands of refs — so the level stays short.)
//
// The trace=rand16 level is the state histograms' worst case: 200k
// random branches over 16 sites, so each branch's window holds most of
// the 16 sites with random outcomes, the path memo bypasses, and most
// instances resolve their beam to a state vector no other instance
// shares.
//
// The window=16 level, impl=memory, is one window-16 Oracle run over the
// packed trace.
//
// The step= levels, on gcc at 200k and on rand16, are what a full report
// computes per trace for Figures 4 and 5 (benchFig5Step): step=fused is
// the one-classification step, step=split the earlier path of two
// oracle builds and four classifications.
func BenchmarkOracleWindows(b *testing.B) {
	for _, n := range []int{200_000, 1_000_000} {
		tr := benchTraceN(b, "gcc", n)
		pt := tr.Packed()
		b.Run(fmt.Sprintf("len=%d/impl=loop", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for _, w := range benchFig5Windows {
					core.Oracle(pt, core.OracleOptions{OracleConfig: core.OracleConfig{WindowLen: w}})
				}
			}
			b.ReportMetric(float64(tr.Len()*b.N)/b.Elapsed().Seconds(), "branches/s")
		})
		benchOracleShared(b, fmt.Sprintf("len=%d", n), tr)
	}
	benchOracleShared(b, "len=50000/trace=rand2000", benchRandomTrace(50_000, 2000))
	rand16 := benchRandomTrace(200_000, 16)
	benchOracleShared(b, "len=200000/trace=rand16", rand16)
	benchFig5Step(b, "len=200000", benchTraceN(b, "gcc", 200_000))
	benchFig5Step(b, "len=200000/trace=rand16", rand16)

	tr := benchTraceN(b, "gcc", 200_000)
	pt := tr.Packed()
	opts := core.OracleOptions{OracleConfig: core.OracleConfig{WindowLen: 16}}
	b.Run("len=200000/window=16/impl=memory", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			core.Oracle(pt, opts)
		}
		b.ReportMetric(float64(tr.Len()*b.N)/b.Elapsed().Seconds(), "branches/s")
	})
}

// benchOracleShared runs BenchmarkOracleWindows' shared-pass and fused
// Figure 5 sweep levels over tr under the given name prefix.
func benchOracleShared(b *testing.B, prefix string, tr *trace.Trace) {
	pt := tr.Packed()
	b.Run(prefix+"/impl=shared", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			core.OracleWindows(pt, benchFig5Windows, core.OracleOptions{})
		}
		b.ReportMetric(float64(tr.Len()*b.N)/b.Elapsed().Seconds(), "branches/s")
	})
	b.Run(prefix+"/sweep=fig5", func(b *testing.B) {
		windows := []int{8, 12, 16, 20, 24, 28, 32}
		sels := core.OracleWindows(pt, windows, core.OracleOptions{})
		cfgs := make([]core.SelectiveConfig, len(windows))
		for i, w := range windows {
			cfgs[i] = core.SelectiveConfig{Name: fmt.Sprintf("sel3(%d)", w), Window: w, Assign: sels[i].BySize[3]}
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sim.SimulateSweep(tr, core.NewSelectiveSweep("fig5", cfgs), sim.Options{})
		}
		b.ReportMetric(float64(tr.Len()*b.N)/b.Elapsed().Seconds(), "branches/s")
	})
}

// benchFig5Step runs BenchmarkOracleWindows' per-trace step levels over
// tr: the oracle selections of every Figure 5 window, Figure 5's
// selective sweep, and the per-branch window-16 grid Figures 4 and 8,
// Table 2 and in-path read. step=fused classifies the trace once, at
// window 32, and runs one OracleWindows call and both sweeps over those
// classes. step=split is the path before it: a window-16 Oracle run and
// a six-window OracleWindows call, each classifying the trace itself,
// and two sweeps that classify it again.
func benchFig5Step(b *testing.B, prefix string, tr *trace.Trace) {
	windows := []int{8, 12, 16, 20, 24, 28, 32}
	fig5 := func(sels []*core.Selections) []core.SelectiveConfig {
		cfgs := make([]core.SelectiveConfig, len(windows))
		for i, w := range windows {
			cfgs[i] = core.SelectiveConfig{Name: fmt.Sprintf("sel3(%d)", w), Window: w, Assign: sels[i].BySize[3]}
		}
		return cfgs
	}
	b.Run(prefix+"/step=fused", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			pc := core.ClassifyPaths(tr, 32, nil)
			sels := core.OracleWindows(pc, windows, core.OracleOptions{})
			sim.SimulateSweep(tr, core.NewSelectiveSweepOver(pc, "fig5", fig5(sels)), sim.Options{})
			sim.SimulateSweep(tr, benchGlobalGrid(pc, sels[2]), sim.Options{PerBranch: true})
		}
		b.ReportMetric(float64(tr.Len()*b.N)/b.Elapsed().Seconds(), "branches/s")
	})
	b.Run(prefix+"/step=split", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sel16 := core.Oracle(tr, core.OracleOptions{OracleConfig: core.OracleConfig{WindowLen: 16}})
			others := core.OracleWindows(tr, benchFig5Windows, core.OracleOptions{})
			sels := append(append(others[:2:2], sel16), others[2:]...)
			sim.SimulateSweep(tr, core.NewSelectiveSweep("fig5", fig5(sels)), sim.Options{})
			sim.SimulateSweep(tr, benchGlobalGrid(nil, sel16), sim.Options{PerBranch: true})
		}
		b.ReportMetric(float64(tr.Len()*b.N)/b.Elapsed().Seconds(), "branches/s")
	})
}

// benchRandomTrace builds a deterministic high-entropy trace of n
// branches over the given number of static sites: uniformly random
// sites and outcomes, with every fourth site a backward loop branch, so
// path signatures almost never repeat.
func benchRandomTrace(n, sites int) *trace.Trace {
	tr := trace.New(fmt.Sprintf("rand%d", sites), n)
	x := uint32(1)
	next := func() uint32 {
		x = x*1664525 + 1013904223
		return x
	}
	for i := 0; i < n; i++ {
		site := (next() >> 8) % uint32(sites)
		tr.Append(trace.Record{PC: trace.Addr(0x1000 + 4*site), Taken: next()&0x40000 != 0, Backward: site%4 == 0})
	}
	return tr
}

// BenchmarkSimPredictor measures single-predictor simulation throughput:
// the per-record reference loop against the columnar kernel engine over
// the memoized packed view. Each iteration simulates the full trace on a
// fresh predictor (the realistic unit of work: one exhibit cell). The
// impl=ref / impl=kernel pair at each length is the speedup
// BENCH_sim.json records; gshare and bimodal at len=1000000 are the
// acceptance numbers. The ifgshare and ifpas kernels are one-config
// sweeps (kernel.go). For gshare and bimodal an impl=sweep1 row runs
// the same config as a 1-config fused sweep — per branch for gshare,
// totals for bimodal, whose grid has no per-branch form: the standing
// evidence that their dedicated kernels beat the staged replay.
func BenchmarkSimPredictor(b *testing.B) {
	specs := []string{"bimodal:14", "gshare:16", "gas:12,4", "pas:12,10,6", "ifgshare:16", "ifpas:16"}
	sweep1 := map[string]struct {
		grid func() bp.SweepGrid
		opts sim.Options
	}{
		"gshare:16":  {func() bp.SweepGrid { return bp.NewGshareSweep([]uint{16}) }, sim.Options{PerBranch: true}},
		"bimodal:14": {func() bp.SweepGrid { return bp.NewBimodalSweep([]uint{14}) }, sim.Options{}},
	}
	for _, spec := range specs {
		for _, n := range benchOracleLengths {
			tr := benchTraceN(b, "gcc", n)
			tr.Packed() // memoized columnar view built outside the timer
			stats := trace.Summarize(tr)
			mk := func() bp.Predictor {
				p, err := bp.Parse(spec, bp.Env{Stats: stats})
				if err != nil {
					b.Fatal(err)
				}
				return p
			}
			name, _, _ := strings.Cut(spec, ":")
			b.Run(fmt.Sprintf("pred=%s/len=%d/impl=ref", name, n), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					sim.Simulate(tr, []bp.Predictor{mk()}, sim.Options{ForceReference: true})
				}
				b.ReportMetric(float64(tr.Len()*b.N)/b.Elapsed().Seconds(), "branches/s")
			})
			b.Run(fmt.Sprintf("pred=%s/len=%d/impl=kernel", name, n), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					sim.Simulate(tr, []bp.Predictor{mk()}, sim.Options{})
				}
				b.ReportMetric(float64(tr.Len()*b.N)/b.Elapsed().Seconds(), "branches/s")
			})
			if sw, ok := sweep1[spec]; ok {
				b.Run(fmt.Sprintf("pred=%s/len=%d/impl=sweep1", name, n), func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						sim.SimulateSweep(tr, sw.grid(), sw.opts)
					}
					b.ReportMetric(float64(tr.Len()*b.N)/b.Elapsed().Seconds(), "branches/s")
				})
			}
		}
	}
}

// benchSweepGrids are the fused-sweep benchmark grids: ≥12 configs per
// family, spanning the geometry ranges the paper's figures sweep.
func benchSweepGrids() []struct {
	name string
	mk   func() bp.SweepGrid
} {
	gshareBits := make([]uint, 0, 15)
	for bits := uint(8); bits <= 22; bits++ {
		gshareBits = append(gshareBits, bits)
	}
	bimodalBits := make([]uint, 0, 12)
	for bits := uint(6); bits <= 17; bits++ {
		bimodalBits = append(bimodalBits, bits)
	}
	hybridBits := make([]uint, 0, 12)
	for bits := uint(8); bits <= 19; bits++ {
		hybridBits = append(hybridBits, bits)
	}
	// IF histories stay short: the interference-free tables are maps
	// keyed by (address, history), so long histories key memory-
	// proportional-to-trace state per config.
	ifBits := []uint{2, 3, 4, 5, 6, 7}
	return []struct {
		name string
		mk   func() bp.SweepGrid
	}{
		{"gshare-hist", func() bp.SweepGrid { return bp.NewGshareSweep(gshareBits) }},
		{"bimodal-size", func() bp.SweepGrid { return bp.NewBimodalSweep(bimodalBits) }},
		{"hybrid-gshare", func() bp.SweepGrid { return bp.NewHybridSweep(hybridBits, 12, 10) }},
		{"ifgshare-hist", func() bp.SweepGrid { return bp.NewIFGshareSweep(ifBits) }},
	}
}

// benchShardCounts are the config-shard settings BENCH_sweep.json
// records rows at: sequential, two shards, and the machine width —
// deduplicated so a single-core runner still produces a shards=2 row
// (exercising the scheduler; the speedup needs real cores).
func benchShardCounts() []int {
	counts := []int{1, 2}
	if n := runtime.GOMAXPROCS(0); n > 2 {
		counts = append(counts, n)
	}
	return counts
}

// assertFusedEngagement fails a sweep benchmark whose iterations left
// the fused path: a silent fallback would publish
// misleading throughput into BENCH_sweep.json. This is the loud half of
// the bench-sweep differential gate.
func assertFusedEngagement(b *testing.B, reg *obs.Registry, iters int64, shards int) {
	b.Helper()
	if got := reg.Counter("sim.sweep.runs.fused").Value(); got != iters {
		b.Fatalf("fused engine engaged on %d of %d iterations", got, iters)
	}
	if got := reg.Counter("sim.sweep.runs.fallback").Value(); got != 0 {
		b.Fatalf("fallback engine engaged %d times on a fused grid", got)
	}
	if shards > 1 {
		if got := reg.Counter("sim.sweep.runs.sharded").Value(); got != iters {
			b.Fatalf("sharded scheduler engaged on %d of %d iterations", got, iters)
		}
	}
}

// BenchmarkSimSweep measures whole-grid sweep throughput: per-config
// independent kernel runs against one fused sweep pass over the same
// grid, each iteration sweeping the full trace on fresh state. The
// metric is aggregate predicted branches/s (configs × branches / wall).
// The impl=independent / impl=fused pair at each length is the speedup
// BENCH_sweep.json records; the 15-config gshare-hist grid at
// len=1000000 is the headline aggregate number. The aggregate scales as
// ncfg / (shared + ncfg·access): the fused pass pays the column walk
// once, so it converges to the per-access counter-update floor of the
// recording machine's core, where independent runs pay the walk per
// config.
func BenchmarkSimSweep(b *testing.B) {
	for _, grid := range benchSweepGrids() {
		ncfg := len(grid.mk().ConfigNames())
		for _, n := range benchOracleLengths {
			tr := benchTraceN(b, "gcc", n)
			tr.Packed() // memoized columnar view built outside the timer
			b.Run(fmt.Sprintf("grid=%s/len=%d/impl=independent", grid.name, n), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					for _, p := range grid.mk().Configs() {
						sim.Simulate(tr, []bp.Predictor{p}, sim.Options{})
					}
				}
				b.ReportMetric(float64(ncfg)*float64(tr.Len())*float64(b.N)/b.Elapsed().Seconds(), "branches/s")
			})
			b.Run(fmt.Sprintf("grid=%s/len=%d/impl=fused", grid.name, n), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					sim.SimulateSweep(tr, grid.mk(), sim.Options{})
				}
				b.ReportMetric(float64(ncfg)*float64(tr.Len())*float64(b.N)/b.Elapsed().Seconds(), "branches/s")
			})
			for _, shards := range benchShardCounts() {
				b.Run(fmt.Sprintf("grid=%s/len=%d/impl=fused/shards=%d", grid.name, n, shards), func(b *testing.B) {
					reg := obs.New()
					opts := sim.Options{Parallel: shards, Observer: reg}
					for i := 0; i < b.N; i++ {
						sim.SimulateSweep(tr, grid.mk(), opts)
					}
					b.ReportMetric(float64(ncfg)*float64(tr.Len())*float64(b.N)/b.Elapsed().Seconds(), "branches/s")
					assertFusedEngagement(b, reg, int64(b.N), shards)
				})
			}
		}
	}
	benchSimSweepPerBranch(b)
}

// benchGlobalGrid is the per-branch grid the report's global-correlation
// exhibits share (Figures 4 and 8, Table 2, in-path): 1-, 2- and 3-ref
// oracle-selected selective predictors, the 3-ref one in presence mode,
// IF-gshare(16) and gshare(16). The selective grid reads the path
// classes pc, or classifies the trace itself when pc is nil.
func benchGlobalGrid(pc *core.PathClasses, sels *core.Selections) bp.SweepGrid {
	var cfgs []core.SelectiveConfig
	for k := 1; k <= core.MaxSelectiveRefs; k++ {
		cfgs = append(cfgs, core.SelectiveConfig{Name: fmt.Sprintf("IF %d-branch selective(16)", k), Window: 16, Assign: sels.BySize[k]})
	}
	cfgs = append(cfgs, core.SelectiveConfig{Name: "presence 3-branch selective(16)", Window: 16, Assign: sels.BySize[3], Mode: core.ModePresence})
	return bp.NewConcatSweep("global-perbranch",
		core.NewSelectiveSweepOver(pc, "global-selective", cfgs),
		bp.NewIFGshareSweep([]uint{16}),
		bp.NewGshareSweep([]uint{16}),
	)
}

// benchSimSweepPerBranch adds BenchmarkSimSweep's per-branch rows, the
// global grid at each length: impl=fused is one sim.SimulateSweep with Options.PerBranch (the
// report's path), impl=reference is per-config sim.Simulate runs, where
// the selective configs have no single-predictor kernel and take the
// scalar reference loop (the path the report took before the fused
// per-branch sweep). The oracle selections are built once per length,
// outside the timer, and only when a row runs. The metric is aggregate
// predicted branches/s (configs × branches / wall).
func benchSimSweepPerBranch(b *testing.B) {
	for _, n := range benchOracleLengths {
		tr := benchTraceN(b, "gcc", n)
		var sels *core.Selections
		mk := func() bp.SweepGrid {
			if sels == nil {
				sels = core.Oracle(tr.Packed(), core.OracleOptions{OracleConfig: core.OracleConfig{WindowLen: 16}})
			}
			return benchGlobalGrid(nil, sels)
		}
		report := func(b *testing.B) {
			ncfg := len(mk().ConfigNames())
			b.ReportMetric(float64(ncfg)*float64(tr.Len())*float64(b.N)/b.Elapsed().Seconds(), "branches/s")
		}
		b.Run(fmt.Sprintf("grid=global-perbranch/len=%d/impl=reference", n), func(b *testing.B) {
			mk()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sim.Simulate(tr, mk().Configs(), sim.Options{})
			}
			report(b)
		})
		b.Run(fmt.Sprintf("grid=global-perbranch/len=%d/impl=fused", n), func(b *testing.B) {
			mk()
			reg := obs.New()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sim.SimulateSweep(tr, mk(), sim.Options{PerBranch: true, Observer: reg})
			}
			report(b)
			assertFusedEngagement(b, reg, int64(b.N), 1)
		})
	}
}

// BenchmarkTraceEncoding measures the binary trace codec.
func BenchmarkTraceEncoding(b *testing.B) {
	tr := benchTrace(b, "compress")
	b.Run("write", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			var sink countingWriter
			if err := tr.Write(&sink); err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(sink))
		}
	})
}

type countingWriter int64

func (w *countingWriter) Write(p []byte) (int, error) {
	*w += countingWriter(len(p))
	return len(p), nil
}
