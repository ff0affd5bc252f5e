package v1

import (
	"fmt"
	"sort"

	"branchcorr/internal/core"
	"branchcorr/internal/sim"
	"branchcorr/internal/trace"
)

// This file shapes engine results into wire payloads. Every builder is
// deterministic: map-backed engine state (per-branch accounting, oracle
// assignments, candidate beams) is emitted sorted by PC, so the same
// result value always yields the same payload value — and, through
// Marshal, the same bytes. The builders live here rather than in the
// server so the server and test clients shape payloads the same way.

// FormatPC renders a branch address the way core.Ref does ("0x4000").
func FormatPC(pc trace.Addr) string {
	return fmt.Sprintf("0x%x", uint32(pc))
}

// NewTraceInfo describes a resolved trace.
func NewTraceInfo(key string, pt *trace.Packed) TraceInfo {
	return TraceInfo{
		Key:      key,
		Name:     pt.Name(),
		Branches: pt.Len(),
		Sites:    pt.NumBranches(),
	}
}

// NewPredictorResult shapes one predictor's simulation result; tl may be
// nil (no timeline requested). PerBranch accounting is included only on
// request and is sorted by PC.
func NewPredictorResult(r *sim.Result, tl *sim.Timeline, perBranch bool) PredictorResult {
	pr := PredictorResult{
		Spec:     r.Predictor,
		Correct:  int64(r.Correct),
		Total:    int64(r.Total),
		Accuracy: r.Accuracy(),
	}
	if tl != nil {
		pr.Timeline = tl.Accuracy
	}
	if perBranch {
		pcs := make([]trace.Addr, 0, len(r.PerBranch))
		for pc := range r.PerBranch {
			pcs = append(pcs, pc)
		}
		sort.Slice(pcs, func(i, j int) bool { return pcs[i] < pcs[j] })
		pr.PerBranch = make([]BranchAcc, len(pcs))
		for i, pc := range pcs {
			acc := r.PerBranch[pc]
			pr.PerBranch[i] = BranchAcc{
				PC:      FormatPC(pc),
				Correct: int64(acc.Correct),
				Total:   int64(acc.Total),
			}
		}
	}
	return pr
}

// NewSweepConfigs shapes a sweep outcome's per-config results, in grid
// order.
func NewSweepConfigs(o *sim.SweepOutcome) []SweepConfig {
	cfgs := make([]SweepConfig, len(o.Configs))
	for i, name := range o.Configs {
		cfgs[i] = SweepConfig{Name: name, Correct: o.Correct[i], Accuracy: o.Accuracy(i)}
	}
	return cfgs
}

// NewOracleAssignments shapes a full oracle run's selections: one
// assignment per history size 1..core.MaxSelectiveRefs, branches sorted
// by PC, refs in the oracle's selection order.
func NewOracleAssignments(sel *core.Selections) []OracleAssignment {
	sizes := make([]OracleAssignment, 0, core.MaxSelectiveRefs)
	for k := 1; k <= core.MaxSelectiveRefs; k++ {
		asn := sel.BySize[k]
		pcs := make([]trace.Addr, 0, len(asn))
		for pc := range asn {
			pcs = append(pcs, pc)
		}
		sort.Slice(pcs, func(i, j int) bool { return pcs[i] < pcs[j] })
		branches := make([]BranchRefs, len(pcs))
		for i, pc := range pcs {
			refs := asn[pc]
			out := make([]string, len(refs))
			for j, ref := range refs {
				out[j] = ref.String()
			}
			branches[i] = BranchRefs{PC: FormatPC(pc), Refs: out}
		}
		sizes = append(sizes, OracleAssignment{Size: k, Branches: branches})
	}
	return sizes
}

// NewOracleCandidates shapes a profile run's candidate beams, sorted by
// PC, each beam in ranked (most predictive first) order.
func NewOracleCandidates(cands map[trace.Addr]*core.Candidates) []OracleCandidates {
	pcs := make([]trace.Addr, 0, len(cands))
	for pc := range cands {
		pcs = append(pcs, pc)
	}
	sort.Slice(pcs, func(i, j int) bool { return pcs[i] < pcs[j] })
	out := make([]OracleCandidates, len(pcs))
	for i, pc := range pcs {
		c := cands[pc]
		refs := make([]string, len(c.Refs))
		for j, ref := range c.Refs {
			refs[j] = ref.String()
		}
		out[i] = OracleCandidates{
			PC:     FormatPC(pc),
			Total:  int64(c.Total),
			Refs:   refs,
			Scores: c.Scores,
		}
	}
	return out
}

// NewClassShares shapes a per-address classification's dynamic class
// distribution, in class declaration order.
func NewClassShares(p *core.PAClassification) []ClassShare {
	classes := []core.PAClass{core.ClassStatic, core.ClassLoop, core.ClassRepeating, core.ClassNonRepeating}
	out := make([]ClassShare, len(classes))
	for i, c := range classes {
		out[i] = ClassShare{
			Class:     c.String(),
			DynWeight: int64(p.DynWeight[c]),
			Frac:      p.Frac(c),
		}
	}
	return out
}
