package experiments

import (
	"fmt"

	"branchcorr/internal/bp"
	"branchcorr/internal/entropy"
	"branchcorr/internal/textplot"
	"branchcorr/internal/trace"
)

// CeilingRow compares achieved accuracies to information-theoretic
// predictability ceilings for one benchmark (extension exhibit).
type CeilingRow struct {
	Benchmark string
	// LocalCeil is the best accuracy a statically filled table seeing
	// k=12 bits of per-branch self-history could reach; IFPAs is what an
	// adaptive interference-free PAs with the same 12-bit history
	// reached.
	LocalCeil float64
	IFPAs     float64
	// GlobalCeil is the best accuracy any predictor seeing k=12 global
	// history bits could reach; IFGshare is the matched achieved value.
	GlobalCeil float64
	IFGshare   float64
	// ResidualBits is the dynamic-weighted conditional entropy left at
	// the global ceiling (0 = trace fully determined by the context).
	ResidualBits float64
}

// CeilingResult is the ceiling comparison across the suite.
type CeilingResult struct {
	HistoryBits int
	Rows        []CeilingRow
}

// ceilingHistoryBits is the context length of the ceiling exhibit.
const ceilingHistoryBits = 12

// ceilingCell computes one benchmark's static-table predictability
// ceilings at 12 history bits and lines them up against
// interference-free adaptive predictors using exactly the same 12-bit
// contexts. Adaptive below ceiling = training-time cost; adaptive above
// ceiling = phase drift the static table cannot track (the adaptivity
// question of Sechrest et al. and Young et al., §2.2, answered
// quantitatively per benchmark).
func (s *Suite) ceilingCell(tr *trace.Trace) CeilingRow {
	const k = ceilingHistoryBits
	s.log("%s: entropy ceilings (k=%d)", tr.Name(), k)
	local := entropy.LocalCeilings(tr, k)
	global := entropy.GlobalCeilings(tr, k)
	rs := s.simRun(tr, false, bp.NewIFPAs(k), bp.NewIFGshare(k)).Results
	return CeilingRow{
		Benchmark:    tr.Name(),
		LocalCeil:    local.Weighted[k],
		IFPAs:        rs[0].Accuracy(),
		GlobalCeil:   global.Weighted[k],
		IFGshare:     rs[1].Accuracy(),
		ResidualBits: global.WeightedBits[k],
	}
}

// Render formats the ceiling comparison.
func (r *CeilingResult) Render() string {
	rows := make([][]string, len(r.Rows))
	for i, row := range r.Rows {
		rows[i] = []string{
			row.Benchmark,
			pct(row.IFPAs), pct(row.LocalCeil),
			pct(row.IFGshare), pct(row.GlobalCeil),
			fmt.Sprintf("%.3f", row.ResidualBits),
		}
	}
	return textplot.Table(
		"Extension. Achieved accuracy vs information-theoretic ceilings (12-bit contexts)",
		[]string{"Benchmark", "IF PAs", "local ceiling", "IF gshare", "global ceiling", "residual bits"},
		rows)
}
