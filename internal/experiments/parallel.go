package experiments

import (
	"context"
	"fmt"
	"slices"
	"strings"

	"branchcorr/internal/runner"
)

// ExhibitOrder returns the canonical exhibit names in report order: the
// paper's tables and figures first, then the four extensions. Rendered
// reports always print exhibits in this order, which is what makes the
// parallel runner's output byte-identical to a sequential run.
func ExhibitOrder() []string {
	return []string{
		"table1", "fig4", "fig5", "table2", "fig6", "table3", "fig7", "fig8", "fig9",
		"inpath",   // extension: in-path vs direction correlation decomposition
		"ceiling",  // extension: achieved accuracy vs entropy ceilings
		"hybrids",  // extension: hybrid organizations vs ideal per-branch choice
		"training", // extension: cold-start vs steady-state accuracy
		"sweeps",   // extension: fused gshare history sweep (one pass per workload)
		"extra",    // user-spec'd predictors (Config.ExtraSpecs; skipped when empty)
	}
}

// globalExhibits are the exhibits that read the per-branch bundle
// (globalFor), and so the oracle's selections at the configured window.
var globalExhibits = []string{"fig4", "table2", "fig8", "inpath"}

// normalizeExhibits validates the requested exhibit names and returns
// them deduplicated in canonical order; nil or empty requests everything.
func normalizeExhibits(names []string) ([]string, error) {
	if len(names) == 0 {
		return ExhibitOrder(), nil
	}
	known := map[string]bool{}
	for _, e := range ExhibitOrder() {
		known[e] = true
	}
	want := map[string]bool{}
	for _, e := range names {
		e = strings.TrimSpace(e)
		if !known[e] {
			return nil, fmt.Errorf("experiments: unknown exhibit %q (have %s)",
				e, strings.Join(ExhibitOrder(), ","))
		}
		want[e] = true
	}
	var out []string
	for _, e := range ExhibitOrder() {
		if want[e] {
			out = append(out, e)
		}
	}
	return out, nil
}

// BuildReport computes the requested exhibits (nil means all) across a
// worker pool and merges the results into a Report. The report is
// decomposed into (exhibit × workload) cells; every cell writes into a
// pre-assigned result slot, so the merged report — and hence the
// rendered text and JSON — is byte-identical no matter how many workers
// opts.Parallel selects. The first failing cell cancels the pool and is
// returned as the error.
func (s *Suite) BuildReport(ctx context.Context, exhibits []string, opts runner.Options) (*Report, error) {
	want, err := normalizeExhibits(exhibits)
	if err != nil {
		return nil, err
	}
	report := s.NewReport()
	var cells []runner.Cell
	// With Figure 5 requested next to an exhibit that reads the
	// per-branch bundle, the bundle's oracle build, classification and
	// sweep fold into Figure 5's per-trace step, run by whichever cell
	// reaches the trace first.
	s.foldFig5.Store(slices.Contains(want, "fig5") &&
		slices.ContainsFunc(globalExhibits, func(e string) bool { return slices.Contains(want, e) }))

	// cell appends one per-workload cell that stores its row via set.
	cell := func(exhibit, workload string, run func(ctx context.Context) error) {
		cells = append(cells, runner.Cell{Exhibit: exhibit, Workload: workload, Run: run})
	}
	// perTrace appends one infallible cell per suite trace.
	perTrace := func(exhibit string, run func(i int) func()) {
		for i, tr := range s.traces {
			do := run(i)
			cell(exhibit, tr.Name(), func(context.Context) error {
				do()
				return nil
			})
		}
	}

	for _, e := range want {
		switch e {
		case "table1":
			res := &Table1Result{Rows: make([]Table1Row, len(s.traces))}
			report.Table1 = res
			perTrace(e, func(i int) func() {
				tr := s.traces[i]
				return func() { res.Rows[i] = s.table1Cell(tr) }
			})
		case "fig4":
			res := &Figure4Result{Rows: make([]Figure4Row, len(s.traces))}
			report.Figure4 = res
			perTrace(e, func(i int) func() {
				tr := s.traces[i]
				return func() { res.Rows[i] = s.figure4Cell(tr) }
			})
		case "fig5":
			res := &Figure5Result{
				Windows:    s.cfg.Fig5Windows,
				Benchmarks: s.Names(),
				Acc:        make([][]float64, len(s.traces)),
			}
			report.Figure5 = res
			for i, tr := range s.traces {
				i, tr := i, tr
				cell(e, tr.Name(), func(ctx context.Context) error {
					res.Acc[i] = s.figure5Cell(ctx, tr)
					return ctx.Err()
				})
			}
		case "table2":
			res := &Table2Result{Rows: make([]Table2Row, len(s.traces))}
			report.Table2 = res
			perTrace(e, func(i int) func() {
				tr := s.traces[i]
				return func() { res.Rows[i] = s.table2Cell(tr) }
			})
		case "fig6":
			res := &Figure6Result{Rows: make([]Figure6Row, len(s.traces))}
			report.Figure6 = res
			perTrace(e, func(i int) func() {
				tr := s.traces[i]
				return func() { res.Rows[i] = s.figure6Cell(tr) }
			})
		case "table3":
			res := &Table3Result{Rows: make([]Table3Row, len(s.traces))}
			report.Table3 = res
			perTrace(e, func(i int) func() {
				tr := s.traces[i]
				return func() { res.Rows[i] = s.table3Cell(tr) }
			})
		case "fig7":
			res := s.newFigure7Result()
			report.Figure7 = res
			perTrace(e, func(i int) func() {
				tr := s.traces[i]
				return func() { res.Rows[i] = splitCell(tr, s.figure7Split) }
			})
		case "fig8":
			res := s.newFigure8Result()
			report.Figure8 = res
			perTrace(e, func(i int) func() {
				tr := s.traces[i]
				return func() { res.Rows[i] = splitCell(tr, s.figure8Split) }
			})
		case "fig9":
			res := &Figure9Result{
				Percentiles: s.cfg.Fig9Percentiles,
				Benchmarks:  s.cfg.Fig9Benchmarks,
				Diff:        make([][]float64, len(s.cfg.Fig9Benchmarks)),
			}
			report.Figure9 = res
			for i, name := range s.cfg.Fig9Benchmarks {
				i, name := i, name
				cell(e, name, func(context.Context) error {
					curve, err := s.figure9Cell(name)
					if err != nil {
						return err
					}
					res.Diff[i] = curve
					return nil
				})
			}
		case "inpath":
			res := &InPathResult{Rows: make([]InPathRow, len(s.traces))}
			report.InPath = res
			perTrace(e, func(i int) func() {
				tr := s.traces[i]
				return func() { res.Rows[i] = s.inPathCell(tr) }
			})
		case "ceiling":
			res := &CeilingResult{HistoryBits: ceilingHistoryBits, Rows: make([]CeilingRow, len(s.traces))}
			report.Ceiling = res
			perTrace(e, func(i int) func() {
				tr := s.traces[i]
				return func() { res.Rows[i] = s.ceilingCell(tr) }
			})
		case "hybrids":
			res := &HybridsResult{Rows: make([]HybridRow, len(s.traces))}
			report.Hybrids = res
			perTrace(e, func(i int) func() {
				tr := s.traces[i]
				return func() { res.Rows[i] = s.hybridsCell(tr) }
			})
		case "training":
			res := &TrainingResult{Bucket: s.trainingBucket(), Rows: make([]TrainingRow, len(s.traces))}
			report.Training = res
			perTrace(e, func(i int) func() {
				tr := s.traces[i]
				return func() { res.Rows[i] = s.trainingCell(tr) }
			})
		case "sweeps":
			res := &SweepsResult{
				Bits:       s.cfg.SweepGshareBits,
				Benchmarks: s.Names(),
				Acc:        make([][]float64, len(s.traces)),
			}
			report.Sweeps = res
			perTrace(e, func(i int) func() {
				tr := s.traces[i]
				return func() { res.Acc[i] = s.sweepsCell(tr) }
			})
		case "extra":
			if len(s.cfg.ExtraSpecs) == 0 {
				continue // nothing requested: keep default reports unchanged
			}
			res := s.newExtraResult()
			report.Extra = res
			for i, tr := range s.traces {
				i, tr := i, tr
				cell(e, tr.Name(), func(context.Context) error {
					row, err := s.extraCell(tr)
					if err != nil {
						return err
					}
					res.Acc[i] = row
					return nil
				})
			}
		}
	}

	// Every run instruments cell lifecycle into the suite's registry on
	// top of whatever observer the caller supplied.
	opts.Observer = runner.Chain(runner.RegistryObserver(s.obs), opts.Observer)
	if err := runner.Run(ctx, cells, opts); err != nil {
		return nil, err
	}
	return report, nil
}

// RenderExhibit renders one exhibit of the report by canonical name,
// reporting false when that exhibit is not present.
func (r *Report) RenderExhibit(name string) (string, bool) {
	switch name {
	case "table1":
		if r.Table1 != nil {
			return r.Table1.Render(), true
		}
	case "fig4":
		if r.Figure4 != nil {
			return r.Figure4.Render(), true
		}
	case "fig5":
		if r.Figure5 != nil {
			return r.Figure5.Render(), true
		}
	case "table2":
		if r.Table2 != nil {
			return r.Table2.Render(), true
		}
	case "fig6":
		if r.Figure6 != nil {
			return r.Figure6.Render(), true
		}
	case "table3":
		if r.Table3 != nil {
			return r.Table3.Render(), true
		}
	case "fig7":
		if r.Figure7 != nil {
			return r.Figure7.Render(), true
		}
	case "fig8":
		if r.Figure8 != nil {
			return r.Figure8.Render(), true
		}
	case "fig9":
		if r.Figure9 != nil {
			return r.Figure9.Render(), true
		}
	case "inpath":
		if r.InPath != nil {
			return r.InPath.Render(), true
		}
	case "ceiling":
		if r.Ceiling != nil {
			return r.Ceiling.Render(), true
		}
	case "hybrids":
		if r.Hybrids != nil {
			return r.Hybrids.Render(), true
		}
	case "training":
		if r.Training != nil {
			return r.Training.Render(), true
		}
	case "sweeps":
		if r.Sweeps != nil {
			return r.Sweeps.Render(), true
		}
	case "extra":
		if r.Extra != nil {
			return r.Extra.Render(), true
		}
	}
	return "", false
}

// Render renders every present exhibit in canonical order, one per
// line-separated block — the exact text a sequential cmd/experiments run
// prints.
func (r *Report) Render() string {
	var sb strings.Builder
	for _, name := range ExhibitOrder() {
		if out, ok := r.RenderExhibit(name); ok {
			sb.WriteString(out)
			sb.WriteString("\n")
		}
	}
	return sb.String()
}
