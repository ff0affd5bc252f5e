package bp

import "branchcorr/internal/trace"

// AlwaysTaken statically predicts every branch taken.
type AlwaysTaken struct{}

// Name implements Predictor.
func (AlwaysTaken) Name() string { return "always-taken" }

// Predict implements Predictor.
func (AlwaysTaken) Predict(trace.Record) bool { return true }

// Update implements Predictor.
func (AlwaysTaken) Update(trace.Record) {}

// AlwaysNotTaken statically predicts every branch not-taken.
type AlwaysNotTaken struct{}

// Name implements Predictor.
func (AlwaysNotTaken) Name() string { return "always-not-taken" }

// Predict implements Predictor.
func (AlwaysNotTaken) Predict(trace.Record) bool { return false }

// Update implements Predictor.
func (AlwaysNotTaken) Update(trace.Record) {}

// BTFNT is the classic backward-taken/forward-not-taken static heuristic:
// loop-closing (backward) branches are predicted taken, forward branches
// not-taken.
type BTFNT struct{}

// Name implements Predictor.
func (BTFNT) Name() string { return "btfnt" }

// Predict implements Predictor.
func (BTFNT) Predict(r trace.Record) bool { return r.Backward }

// Update implements Predictor.
func (BTFNT) Update(trace.Record) {}

// IdealStatic is the paper's "ideal" static predictor (section 4.1): each
// static branch is predicted in the direction it takes most often over the
// whole run. It requires profiling the trace first, which NewIdealStatic
// does from precomputed stats; ties predict taken.
//
// Its accuracy is the ceiling for any static (one-direction-per-branch)
// scheme, which is why the paper uses it as the bar a dynamic class
// predictor must beat for a branch to be "classified".
type IdealStatic struct {
	majority map[trace.Addr]bool
}

// NewIdealStatic builds the ideal static predictor from trace statistics.
func NewIdealStatic(st *trace.Stats) *IdealStatic {
	m := make(map[trace.Addr]bool, len(st.Sites))
	for pc, site := range st.Sites {
		m[pc] = site.MajorityTaken()
	}
	return &IdealStatic{majority: m}
}

// IdealStaticCorrect is the ideal static predictor's correct count for
// a branch that ran n times, taken of them taken: the majority
// direction's count (a tie predicts taken, which is then right exactly
// half the time either way). A whole-trace replay of IdealStatic counts
// exactly this per branch, so callers that hold per-site tallies score
// it in closed form.
func IdealStaticCorrect(taken, n int) int { return max(taken, n-taken) }

// Name implements Predictor.
func (p *IdealStatic) Name() string { return "ideal-static" }

// Predict implements Predictor. Branches absent from the profile predict
// taken.
func (p *IdealStatic) Predict(r trace.Record) bool {
	dir, ok := p.majority[r.PC]
	if !ok {
		return true
	}
	return dir
}

// Update implements Predictor; the ideal static predictor never adapts.
func (p *IdealStatic) Update(trace.Record) {}
