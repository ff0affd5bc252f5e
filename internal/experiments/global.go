package experiments

import (
	"context"
	"fmt"
	"slices"

	"branchcorr/internal/core"
	"branchcorr/internal/sim"
	"branchcorr/internal/textplot"
	"branchcorr/internal/trace"
)

// Figure4Row holds one benchmark's accuracies for the selective-history
// comparison (paper Figure 4).
type Figure4Row struct {
	Benchmark string
	Sel       [core.MaxSelectiveRefs + 1]float64 // index by history size 1..3
	IFGshare  float64
	Gshare    float64
}

// Figure4Result reproduces Figure 4: selective histories of 1–3 branches
// vs interference-free gshare and gshare.
type Figure4Result struct {
	Rows []Figure4Row
}

// figure4Cell computes one benchmark's Figure 4 row from the per-branch
// bundle's totals: the selective predictors, the IF-gshare and the
// gshare all ran in the oracle step's one per-branch fused pass
// (stepFor).
func (s *Suite) figure4Cell(tr *trace.Trace) Figure4Row {
	b := s.stepFor(tr).global
	row := Figure4Row{
		Benchmark: tr.Name(),
		IFGshare:  b.ifg.Accuracy(),
		Gshare:    b.g.Accuracy(),
	}
	for k := 1; k <= core.MaxSelectiveRefs; k++ {
		row.Sel[k] = b.sel[k].Accuracy()
	}
	return row
}

// Render formats the figure as grouped accuracy bars.
func (r *Figure4Result) Render() string {
	groups := make([]string, len(r.Rows))
	vals := make([][]float64, len(r.Rows))
	for i, row := range r.Rows {
		groups[i] = row.Benchmark
		vals[i] = []float64{
			100 * row.Sel[1], 100 * row.Sel[2], 100 * row.Sel[3],
			100 * row.IFGshare, 100 * row.Gshare,
		}
	}
	return textplot.GroupedBars(
		"Figure 4. Selective history vs. gshare and interference-free gshare",
		groups,
		[]string{"IF 1-Branch Selective History", "IF 2-Branch Selective History",
			"IF 3-Branch Selective History", "IF Gshare", "Gshare"},
		vals, 80, 100, "%")
}

// Figure5Result reproduces Figure 5: 3-branch selective-history accuracy
// as a function of the history window length.
type Figure5Result struct {
	Windows    []int
	Benchmarks []string
	// Acc[bi][wi] is benchmark bi's accuracy at window Windows[wi].
	Acc [][]float64
}

// figure5Cell returns one benchmark's Figure 5 row from its oracle step
// (stepFor): one shared oracle pass selects for every window (a
// window-n walk is the first n steps of the largest window's walk),
// then a single sweep call simulates every window's selective predictor
// over one trace walk. The context is consulted before the step, so an
// aborted pool skips the rest of the suite's most expensive exhibit.
func (s *Suite) figure5Cell(ctx context.Context, tr *trace.Trace) []float64 {
	if ctx.Err() != nil {
		return make([]float64, len(s.cfg.Fig5Windows))
	}
	return slices.Clone(s.stepFor(tr).fig5)
}

// Render formats the sweep as a line chart plus a value table.
func (r *Figure5Result) Render() string {
	xs := make([]float64, len(r.Windows))
	header := []string{"Benchmark"}
	for i, n := range r.Windows {
		xs[i] = float64(n)
		header = append(header, fmt.Sprintf("n=%d", n))
	}
	ys := make([][]float64, len(r.Benchmarks))
	rows := make([][]string, len(r.Benchmarks))
	for bi, name := range r.Benchmarks {
		ys[bi] = make([]float64, len(r.Windows))
		rows[bi] = []string{name}
		for wi := range r.Windows {
			ys[bi][wi] = 100 * r.Acc[bi][wi]
			rows[bi] = append(rows[bi], pct(r.Acc[bi][wi]))
		}
	}
	return textplot.Lines(
		"Figure 5. Accuracy as a function of history length using a 3-branch selective history",
		xs, r.Benchmarks, ys, "prediction accuracy %") +
		textplot.Table("(values)", header, rows)
}

// Table2Row holds one benchmark's row of the paper's Table 2.
type Table2Row struct {
	Benchmark    string
	Gshare       float64
	GshareCorr   float64 // gshare w/ 1-branch selective where it is better
	IFGshare     float64
	IFGshareCorr float64
	// MispredReduction is the share of gshare mispredictions removed by
	// the correlation combiner (the paper quotes 13% for gcc, 7% for go
	// on the IF variant).
	MispredReduction   float64
	IFMispredReduction float64
}

// Table2Result reproduces Table 2: accuracy of gshare with and without
// the single strongest correlation per branch.
type Table2Result struct {
	Rows []Table2Row
}

// table2Cell computes one benchmark's Table 2 row from the hypothetical
// "gshare w/ Corr" combiners.
func (s *Suite) table2Cell(tr *trace.Trace) Table2Row {
	b := s.stepFor(tr).global
	gCorr := sim.CombineMax("gshare w/ Corr", b.g, b.sel[1])
	ifCorr := sim.CombineMax("IF gshare w/ Corr", b.ifg, b.sel[1])
	row := Table2Row{
		Benchmark:    tr.Name(),
		Gshare:       b.g.Accuracy(),
		GshareCorr:   gCorr.Accuracy(),
		IFGshare:     b.ifg.Accuracy(),
		IFGshareCorr: ifCorr.Accuracy(),
	}
	if m := b.g.Mispredictions(); m > 0 {
		row.MispredReduction = float64(m-gCorr.Mispredictions()) / float64(m)
	}
	if m := b.ifg.Mispredictions(); m > 0 {
		row.IFMispredReduction = float64(m-ifCorr.Mispredictions()) / float64(m)
	}
	return row
}

// Render formats the table.
func (r *Table2Result) Render() string {
	rows := make([][]string, len(r.Rows))
	for i, row := range r.Rows {
		rows[i] = []string{
			row.Benchmark,
			pct(row.Gshare), pct(row.GshareCorr),
			pct(row.IFGshare), pct(row.IFGshareCorr),
			pct(row.MispredReduction), pct(row.IFMispredReduction),
		}
	}
	return textplot.Table(
		"Table 2. Accuracy of gshare w/ and w/o additional correlation",
		[]string{"Benchmark", "gshare", "gshare w/ Corr", "IF gshare", "IF gshare w/ Corr",
			"mispred. removed %", "IF mispred. removed %"},
		rows)
}
