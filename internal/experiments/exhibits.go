package experiments

import (
	"context"
	"fmt"
	"slices"
	"strings"

	"branchcorr/internal/runner"
	"branchcorr/internal/trace"
)

// exhibit is one row of the exhibit table: a canonical name, how a
// report allocates the exhibit's Report field and schedules the cells
// that fill it, and how the field renders.
type exhibit struct {
	name string
	// plan sets the exhibit's Report field on r to an empty result and
	// returns the cells that fill it, one per workload, each writing a
	// pre-assigned slot.
	plan func(s *Suite, r *Report) []runner.Cell
	// render renders the exhibit's field of r, reporting false when the
	// field is nil.
	render func(r *Report) (string, bool)
}

// define builds a table entry from the exhibit's Report field and a plan
// returning the empty result and its cells; the entry stamps the name
// on each cell.
func define[T any, P interface {
	*T
	Render() string
}](name string, field func(r *Report) *P, plan func(s *Suite) (P, []runner.Cell)) exhibit {
	return exhibit{
		name: name,
		plan: func(s *Suite, r *Report) []runner.Cell {
			res, cells := plan(s)
			*field(r) = res
			for i := range cells {
				cells[i].Exhibit = name
			}
			return cells
		},
		render: func(r *Report) (string, bool) {
			if res := *field(r); res != nil {
				return res.Render(), true
			}
			return "", false
		},
	}
}

// exhibits is the exhibit table in report order: the paper's tables and
// figures first, then the extensions. ExhibitOrder, name validation,
// BuildReport's cells and Report.Render all read it, and rendering in
// this order is what makes a report's bytes independent of how its
// cells were scheduled.
var exhibits = []exhibit{
	define("table1", func(r *Report) **Table1Result { return &r.Table1 }, func(s *Suite) (*Table1Result, []runner.Cell) {
		res := &Table1Result{Rows: make([]Table1Row, len(s.traces))}
		return res, s.traceCells(func(i int, tr *trace.Trace) { res.Rows[i] = s.table1Cell(tr) })
	}),
	define("fig4", func(r *Report) **Figure4Result { return &r.Figure4 }, func(s *Suite) (*Figure4Result, []runner.Cell) {
		res := &Figure4Result{Rows: make([]Figure4Row, len(s.traces))}
		return res, s.traceCells(func(i int, tr *trace.Trace) { res.Rows[i] = s.figure4Cell(tr) })
	}),
	define("fig5", func(r *Report) **Figure5Result { return &r.Figure5 }, func(s *Suite) (*Figure5Result, []runner.Cell) {
		res := &Figure5Result{Windows: s.cfg.Fig5Windows, Benchmarks: s.Names(), Acc: make([][]float64, len(s.traces))}
		return res, cellsOver(s.Names(), func(ctx context.Context, i int) error {
			res.Acc[i] = s.figure5Cell(ctx, s.traces[i])
			return ctx.Err()
		})
	}),
	define("table2", func(r *Report) **Table2Result { return &r.Table2 }, func(s *Suite) (*Table2Result, []runner.Cell) {
		res := &Table2Result{Rows: make([]Table2Row, len(s.traces))}
		return res, s.traceCells(func(i int, tr *trace.Trace) { res.Rows[i] = s.table2Cell(tr) })
	}),
	define("fig6", func(r *Report) **Figure6Result { return &r.Figure6 }, func(s *Suite) (*Figure6Result, []runner.Cell) {
		res := &Figure6Result{Rows: make([]Figure6Row, len(s.traces))}
		return res, s.traceCells(func(i int, tr *trace.Trace) { res.Rows[i] = s.figure6Cell(tr) })
	}),
	define("table3", func(r *Report) **Table3Result { return &r.Table3 }, func(s *Suite) (*Table3Result, []runner.Cell) {
		res := &Table3Result{Rows: make([]Table3Row, len(s.traces))}
		return res, s.traceCells(func(i int, tr *trace.Trace) { res.Rows[i] = s.table3Cell(tr) })
	}),
	define("fig7", func(r *Report) **SplitResult { return &r.Figure7 }, func(s *Suite) (*SplitResult, []runner.Cell) {
		res := &SplitResult{
			Title:  "Figure 7. Branches best predicted by gshare, PAs, and ideal static (dynamic-weighted)",
			Labels: [3]string{"Ideal Static Best", "Gshare Best", "PAs Best"},
			Rows:   make([]SplitRow, len(s.traces)),
		}
		return res, s.traceCells(func(i int, tr *trace.Trace) { res.Rows[i] = splitCell(tr, s.figure7Split) })
	}),
	define("fig8", func(r *Report) **SplitResult { return &r.Figure8 }, func(s *Suite) (*SplitResult, []runner.Cell) {
		res := &SplitResult{
			Title:  "Figure 8. Branches best predicted by global correlation, per-address classes, and ideal static",
			Labels: [3]string{"Ideal Static Best", "Global Best", "Per-Address Best"},
			Rows:   make([]SplitRow, len(s.traces)),
		}
		return res, s.traceCells(func(i int, tr *trace.Trace) { res.Rows[i] = splitCell(tr, s.figure8Split) })
	}),
	define("fig9", func(r *Report) **Figure9Result { return &r.Figure9 }, func(s *Suite) (*Figure9Result, []runner.Cell) {
		names := s.cfg.Fig9Benchmarks
		res := &Figure9Result{Percentiles: s.cfg.Fig9Percentiles, Benchmarks: names, Diff: make([][]float64, len(names))}
		return res, cellsOver(names, func(_ context.Context, i int) (err error) {
			res.Diff[i], err = s.figure9Cell(names[i])
			return err
		})
	}),
	// Extension: in-path vs direction correlation decomposition.
	define("inpath", func(r *Report) **InPathResult { return &r.InPath }, func(s *Suite) (*InPathResult, []runner.Cell) {
		res := &InPathResult{Rows: make([]InPathRow, len(s.traces))}
		return res, s.traceCells(func(i int, tr *trace.Trace) { res.Rows[i] = s.inPathCell(tr) })
	}),
	// Extension: achieved accuracy vs entropy ceilings.
	define("ceiling", func(r *Report) **CeilingResult { return &r.Ceiling }, func(s *Suite) (*CeilingResult, []runner.Cell) {
		res := &CeilingResult{HistoryBits: ceilingHistoryBits, Rows: make([]CeilingRow, len(s.traces))}
		return res, s.traceCells(func(i int, tr *trace.Trace) { res.Rows[i] = s.ceilingCell(tr) })
	}),
	// Extension: hybrid organizations vs ideal per-branch choice.
	define("hybrids", func(r *Report) **HybridsResult { return &r.Hybrids }, func(s *Suite) (*HybridsResult, []runner.Cell) {
		res := &HybridsResult{Rows: make([]HybridRow, len(s.traces))}
		return res, s.traceCells(func(i int, tr *trace.Trace) { res.Rows[i] = s.hybridsCell(tr) })
	}),
	// Extension: cold-start vs steady-state accuracy.
	define("training", func(r *Report) **TrainingResult { return &r.Training }, func(s *Suite) (*TrainingResult, []runner.Cell) {
		res := &TrainingResult{Bucket: s.trainingBucket(), Rows: make([]TrainingRow, len(s.traces))}
		return res, s.traceCells(func(i int, tr *trace.Trace) { res.Rows[i] = s.trainingCell(tr) })
	}),
	// Extension: fused gshare history sweep (one pass per workload).
	define("sweeps", func(r *Report) **SweepsResult { return &r.Sweeps }, func(s *Suite) (*SweepsResult, []runner.Cell) {
		res := &SweepsResult{Bits: s.cfg.SweepGshareBits, Benchmarks: s.Names(), Acc: make([][]float64, len(s.traces))}
		return res, s.traceCells(func(i int, tr *trace.Trace) { res.Acc[i] = s.sweepsCell(tr) })
	}),
	// User-spec'd predictors (Config.ExtraSpecs): with none configured
	// the exhibit schedules nothing and stays out of the report, so
	// default reports are unchanged.
	define("extra", func(r *Report) **ExtraResult { return &r.Extra }, func(s *Suite) (*ExtraResult, []runner.Cell) {
		if len(s.cfg.ExtraSpecs) == 0 {
			return nil, nil
		}
		res := &ExtraResult{Specs: s.cfg.ExtraSpecs, Benchmarks: s.Names(), Acc: make([][]float64, len(s.traces))}
		return res, cellsOver(s.Names(), func(_ context.Context, i int) (err error) {
			res.Acc[i], err = s.extraCell(s.traces[i])
			return err
		})
	}),
}

// cellsOver returns one cell per workload name; cell i runs run(ctx, i).
func cellsOver(workloads []string, run func(ctx context.Context, i int) error) []runner.Cell {
	cells := make([]runner.Cell, len(workloads))
	for i, w := range workloads {
		cells[i] = runner.Cell{Workload: w, Run: func(ctx context.Context) error { return run(ctx, i) }}
	}
	return cells
}

// traceCells returns one infallible cell per suite trace; cell i runs
// fill(i, trace i).
func (s *Suite) traceCells(fill func(i int, tr *trace.Trace)) []runner.Cell {
	return cellsOver(s.Names(), func(_ context.Context, i int) error {
		fill(i, s.traces[i])
		return nil
	})
}

// ExhibitOrder returns the canonical exhibit names in report order.
func ExhibitOrder() []string {
	names := make([]string, len(exhibits))
	for i, e := range exhibits {
		names[i] = e.name
	}
	return names
}

// CheckExhibits validates requested exhibit names as BuildReport does,
// without a suite: it returns BuildReport's error for the first name the
// exhibit table lacks, and nil for a nil or empty request. A command
// calls it before generating traces, so a misspelt name fails at once.
func CheckExhibits(names []string) error {
	_, err := selectExhibits(names)
	return err
}

// selectExhibits validates the requested exhibit names and returns their
// table entries deduplicated in report order; nil or empty requests
// everything.
func selectExhibits(names []string) ([]exhibit, error) {
	if len(names) == 0 {
		return exhibits, nil
	}
	want := map[string]bool{}
	for _, name := range names {
		name = strings.TrimSpace(name)
		if !slices.ContainsFunc(exhibits, func(e exhibit) bool { return e.name == name }) {
			return nil, fmt.Errorf("experiments: unknown exhibit %q (have %s)",
				name, strings.Join(ExhibitOrder(), ","))
		}
		want[name] = true
	}
	return slices.DeleteFunc(slices.Clone(exhibits), func(e exhibit) bool { return !want[e.name] }), nil
}

// BuildReport computes the requested exhibits (nil means all) across a
// worker pool and merges the results into a Report. The report is
// decomposed into (exhibit × workload) cells; every cell writes into a
// pre-assigned result slot, so the merged report — and hence the
// rendered text and JSON — is byte-identical no matter how many workers
// opts.Parallel selects. The first failing cell cancels the pool and is
// returned as the error.
func (s *Suite) BuildReport(ctx context.Context, names []string, opts runner.Options) (*Report, error) {
	want, err := selectExhibits(names)
	if err != nil {
		return nil, err
	}
	report := s.NewReport()
	var cells []runner.Cell
	for _, e := range want {
		cells = append(cells, e.plan(s, report)...)
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
	for _, e := range exhibits {
		if e.name == name {
			return e.render(r)
		}
	}
	return "", false
}

// Render renders every present exhibit in canonical order, each block
// followed by a blank line.
func (r *Report) Render() string {
	var sb strings.Builder
	for _, e := range exhibits {
		if out, ok := e.render(r); ok {
			sb.WriteString(out)
			sb.WriteString("\n")
		}
	}
	return sb.String()
}
