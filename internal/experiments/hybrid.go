package experiments

import (
	"fmt"

	"branchcorr/internal/core"
	"branchcorr/internal/sim"
	"branchcorr/internal/textplot"
	"branchcorr/internal/trace"
)

// SplitRow holds one benchmark's three-way best-predictor distribution
// (paper Figures 7 and 8 share this shape).
type SplitRow struct {
	Benchmark string
	// Frac indexed by core.Category (static, global, per-address).
	Frac [3]float64
	// StaticHighBias is the >99%-biased share of the static category
	// (83% in Figure 7, 92% in Figure 8 in the paper).
	StaticHighBias float64
}

// SplitResult is a Figure 7/8-shaped distribution.
type SplitResult struct {
	Title  string
	Labels [3]string
	Rows   []SplitRow
}

// splitCell evaluates one benchmark's category split into a row.
func splitCell(tr *trace.Trace, split func(tr *trace.Trace) *core.CategorySplit) SplitRow {
	sp := split(tr)
	row := SplitRow{Benchmark: tr.Name(), StaticHighBias: sp.StaticHighBiasFrac()}
	for c := core.CatStatic; c <= core.CatPerAddress; c++ {
		row.Frac[c] = sp.Frac(c)
	}
	return row
}

// figure7Split is Figure 7's per-trace category split: the real gshare
// and PAs predictors against the ideal static predictor.
func (s *Suite) figure7Split(tr *trace.Trace) *core.CategorySplit {
	b := s.baseFor(tr)
	stats := trace.Summarize(tr)
	return core.SplitBest(stats, b.static,
		func(pc trace.Addr) int { return b.gshare.Branch(pc).Correct },
		func(pc trace.Addr) int { return b.pas.Branch(pc).Correct },
		0.99)
}

// figure8Split is Figure 8's per-trace category split over the paper's
// predictability classes: global is the better of interference-free
// gshare and the 3-branch selective history, per-address is the best of
// the section 4.1 class predictors.
func (s *Suite) figure8Split(tr *trace.Trace) *core.CategorySplit {
	g := s.stepFor(tr).global
	cl := s.classFor(tr)
	stats := trace.Summarize(tr)
	return core.SplitBest(stats, cl.Static,
		func(pc trace.Addr) int {
			best := g.ifg.Branch(pc).Correct
			if c := g.sel[3].Branch(pc).Correct; c > best {
				best = c
			}
			return best
		},
		cl.PerAddressBestCorrect,
		0.99)
}

// Render formats the split as stacked bars plus the bias table.
func (r *SplitResult) Render() string {
	groups := make([]string, len(r.Rows))
	vals := make([][]float64, len(r.Rows))
	for i, row := range r.Rows {
		groups[i] = row.Benchmark
		vals[i] = row.Frac[:]
	}
	out := textplot.StackedBars(r.Title, groups, r.Labels[:], vals)
	rows := make([][]string, len(r.Rows))
	for i, row := range r.Rows {
		rows[i] = []string{row.Benchmark, pct(row.StaticHighBias)}
	}
	return out + textplot.Table("(share of the ideal-static category that is >99% biased)",
		[]string{"Benchmark", ">99% biased share"}, rows)
}

// Figure9Result reproduces Figure 9: the distribution of the per-branch
// accuracy difference gshare − PAs over dynamic branches.
type Figure9Result struct {
	Percentiles []float64
	Benchmarks  []string
	// Diff[bi][pi] is the accuracy difference (percentage points) at
	// percentile Percentiles[pi] for benchmark Benchmarks[bi].
	Diff [][]float64
}

// figure9Cell computes the percentile curve for one configured benchmark.
func (s *Suite) figure9Cell(name string) ([]float64, error) {
	tr := s.traceByName(name)
	if tr == nil {
		return nil, fmt.Errorf("experiments: figure 9 benchmark %q not in suite", name)
	}
	b := s.baseFor(tr)
	return sim.DiffPercentiles(b.gshare, b.pas, s.cfg.Fig9Percentiles), nil
}

// Fig9Available reports whether every configured Figure 9 benchmark is
// in the suite (the -workloads flag can exclude them; callers then skip
// the exhibit rather than fail the report).
func (s *Suite) Fig9Available() bool {
	for _, name := range s.cfg.Fig9Benchmarks {
		if s.traceByName(name) == nil {
			return false
		}
	}
	return true
}

// Render formats the percentile curves.
func (r *Figure9Result) Render() string {
	out := textplot.Lines(
		"Figure 9. Difference between gshare and PAs accuracy (gshare − PAs, percentage points)",
		r.Percentiles, r.Benchmarks, r.Diff, "gshare acc − PAs acc (pp); >0 means gshare better")
	header := []string{"Percentile"}
	header = append(header, r.Benchmarks...)
	var rows [][]string
	for pi, p := range r.Percentiles {
		row := []string{fmt.Sprintf("%.0f", p)}
		for bi := range r.Benchmarks {
			row = append(row, fmt.Sprintf("%+.2f", r.Diff[bi][pi]))
		}
		rows = append(rows, row)
	}
	return out + textplot.Table("(values)", header, rows)
}
