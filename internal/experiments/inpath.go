package experiments

import (
	"branchcorr/internal/core"
	"branchcorr/internal/textplot"
	"branchcorr/internal/trace"
)

// InPathRow decomposes one benchmark's selective-history accuracy into
// its in-path component (extension exhibit, motivated by section 3.1's
// two correlation kinds).
type InPathRow struct {
	Benchmark string
	// Direction is the full 3-state selective history accuracy (the
	// paper's predictor, Figure 4's sel-3 column).
	Direction float64
	// Presence is the accuracy with outcomes hidden: refs contribute
	// only in-path / not-in-path. The gap Direction − Presence is the
	// share of exploited correlation that needed the outcomes
	// (direction correlation); Presence − Static is correlation carried
	// by path shape alone (in-path correlation).
	Presence float64
	// Static is the ideal static baseline.
	Static float64
}

// InPathResult is the in-path correlation decomposition.
type InPathResult struct {
	Rows []InPathRow
}

// InPath runs the decomposition using each branch's oracle-selected
// 3-ref set under both selective modes.
func (s *Suite) InPath() *InPathResult {
	res := &InPathResult{Rows: make([]InPathRow, len(s.traces))}
	for i, tr := range s.traces {
		res.Rows[i] = s.inPathCell(tr)
	}
	return res
}

// inPathCell decomposes one benchmark's selective-history accuracy.
func (s *Suite) inPathCell(tr *trace.Trace) InPathRow {
	g := s.globalFor(tr)
	base := s.baseFor(tr)
	s.log("%s: presence-only selective history", tr.Name())
	// The direction-mode result and the oracle's ref choices are
	// cached in the global bundle; the presence-mode run reuses the
	// same assignment as a one-config fused selective sweep.
	pres := core.NewSelectiveSweep("inpath-presence", []core.SelectiveConfig{{
		Name:   "presence-sel3",
		Window: s.cfg.Oracle.WindowLen,
		Assign: g.sels.BySize[3],
		Mode:   core.ModePresence,
	}})
	return InPathRow{
		Benchmark: tr.Name(),
		Direction: g.sel[3].Accuracy(),
		Presence:  s.simSweep(tr, pres).Accuracy(0),
		Static:    base.static.Accuracy(),
	}
}

// Render formats the decomposition.
func (r *InPathResult) Render() string {
	groups := make([]string, len(r.Rows))
	vals := make([][]float64, len(r.Rows))
	rows := make([][]string, len(r.Rows))
	for i, row := range r.Rows {
		groups[i] = row.Benchmark
		vals[i] = []float64{100 * row.Static, 100 * row.Presence, 100 * row.Direction}
		rows[i] = []string{
			row.Benchmark, pct(row.Static), pct(row.Presence), pct(row.Direction),
			pct(row.Presence - row.Static), pct(row.Direction - row.Presence),
		}
	}
	return textplot.GroupedBars(
		"Extension. In-path vs direction correlation (3-ref selective history, presence-only vs full)",
		groups,
		[]string{"Ideal Static", "Presence-Only (in-path)", "Full 3-State (direction)"},
		vals, 70, 100, "%") +
		textplot.Table("(decomposition)",
			[]string{"Benchmark", "Static", "Presence", "Direction", "in-path pp", "direction pp"},
			rows)
}
