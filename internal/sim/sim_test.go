package sim

import (
	"math"
	"testing"

	"branchcorr/internal/bp"
	"branchcorr/internal/trace"
)

func mkTrace(recs ...trace.Record) *trace.Trace {
	return trace.FromRecords("test", recs)
}

func rec(pc trace.Addr, taken bool) trace.Record {
	return trace.Record{PC: pc, Taken: taken}
}

func TestRunAccounting(t *testing.T) {
	tr := mkTrace(
		rec(0x10, true), rec(0x10, true), rec(0x10, false),
		rec(0x20, false),
	)
	res := Simulate(tr, []bp.Predictor{bp.AlwaysTaken{}}, Options{}).Results[0]
	if res.Total != 4 || res.Correct != 2 {
		t.Fatalf("total=%d correct=%d, want 4/2", res.Total, res.Correct)
	}
	if got := res.Accuracy(); got != 0.5 {
		t.Errorf("Accuracy = %v", got)
	}
	if res.Mispredictions() != 2 {
		t.Errorf("Mispredictions = %d", res.Mispredictions())
	}
	b := res.Branch(0x10)
	if b.Correct != 2 || b.Total != 3 {
		t.Errorf("branch 0x10 = %+v", b)
	}
	if got := res.Branch(0x999); got.Total != 0 {
		t.Errorf("unknown branch = %+v", got)
	}
	if res.Predictor != "always-taken" || res.Trace != "test" {
		t.Errorf("labels: %q %q", res.Predictor, res.Trace)
	}
}

func TestRunMultiplePredictorsSameStream(t *testing.T) {
	tr := mkTrace(rec(0x10, true), rec(0x10, false), rec(0x20, true))
	rs := Simulate(tr, []bp.Predictor{bp.AlwaysTaken{}, bp.AlwaysNotTaken{}}, Options{}).Results
	if len(rs) != 2 {
		t.Fatalf("len = %d", len(rs))
	}
	if rs[0].Correct != 2 || rs[1].Correct != 1 {
		t.Errorf("correct = %d,%d want 2,1", rs[0].Correct, rs[1].Correct)
	}
	// Complementary predictors must cover every branch exactly once.
	if rs[0].Correct+rs[1].Correct != rs[0].Total {
		t.Error("always-taken + always-not-taken should sum to total")
	}
}

func TestResultString(t *testing.T) {
	tr := mkTrace(rec(0x10, true), rec(0x10, true))
	res := Simulate(tr, []bp.Predictor{bp.AlwaysTaken{}}, Options{}).Results[0]
	want := "always-taken on test: 100.00% (2 branches)"
	if got := res.String(); got != want {
		t.Errorf("String = %q, want %q", got, want)
	}
}

func TestEmptyTrace(t *testing.T) {
	res := Simulate(trace.New("empty", 0), []bp.Predictor{bp.AlwaysTaken{}}, Options{}).Results[0]
	if res.Accuracy() != 0 || res.Total != 0 {
		t.Errorf("empty: %+v", res)
	}
}

func TestCombineMax(t *testing.T) {
	tr := mkTrace(
		rec(0x10, true), rec(0x10, true), // taken branch: AT wins
		rec(0x20, false), rec(0x20, false), rec(0x20, false), // NT wins
	)
	rs := Simulate(tr, []bp.Predictor{bp.AlwaysTaken{}, bp.AlwaysNotTaken{}}, Options{}).Results
	comb := CombineMax("best", rs[0], rs[1])
	if comb.Correct != 5 || comb.Total != 5 {
		t.Errorf("combined = %d/%d, want 5/5", comb.Correct, comb.Total)
	}
	if comb.Predictor != "best" || comb.Trace != "test" {
		t.Errorf("labels: %+v", comb)
	}
	// CombineMax can never be worse than either component.
	if comb.Correct < rs[0].Correct || comb.Correct < rs[1].Correct {
		t.Error("CombineMax below a component")
	}
}

func TestCombineSelect(t *testing.T) {
	tr := mkTrace(
		rec(0x10, true), rec(0x10, true),
		rec(0x20, false), rec(0x20, false),
	)
	rs := Simulate(tr, []bp.Predictor{bp.AlwaysTaken{}, bp.AlwaysNotTaken{}}, Options{}).Results
	// Deliberately choose the WORSE predictor for 0x20: combine must
	// honor the assignment, not optimize.
	comb := CombineSelect("sel", rs[0], rs[1], func(pc trace.Addr) bool { return true })
	if comb.Correct != 2 || comb.Total != 4 {
		t.Errorf("combined = %d/%d, want 2/4", comb.Correct, comb.Total)
	}
	comb2 := CombineSelect("sel2", rs[0], rs[1], func(pc trace.Addr) bool { return pc == 0x10 })
	if comb2.Correct != 4 {
		t.Errorf("per-branch select correct = %d, want 4", comb2.Correct)
	}
}

func TestDiffPercentiles(t *testing.T) {
	// Branch A (weight 1): a=100%, b=0% -> diff +100.
	// Branch B (weight 3): a=0%, b=100% -> diff -100.
	tr := mkTrace(
		rec(0x10, true),
		rec(0x20, false), rec(0x20, false), rec(0x20, false),
	)
	rs := Simulate(tr, []bp.Predictor{bp.AlwaysTaken{}, bp.AlwaysNotTaken{}}, Options{}).Results
	got := DiffPercentiles(rs[0], rs[1], []float64{10, 50, 75, 100})
	// 75% of dynamic weight sits at diff -100, the rest at +100.
	want := []float64{-100, -100, -100, 100}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-9 {
			t.Errorf("percentile %d: got %v, want %v", i, got[i], want[i])
		}
	}
}

func TestDiffPercentilesMonotone(t *testing.T) {
	tr := mkTrace(
		rec(0x10, true), rec(0x10, false),
		rec(0x20, false), rec(0x20, false),
		rec(0x30, true),
	)
	rs := Simulate(tr, []bp.Predictor{bp.AlwaysTaken{}, bp.AlwaysNotTaken{}}, Options{}).Results
	ps := []float64{0, 10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	got := DiffPercentiles(rs[0], rs[1], ps)
	for i := 1; i < len(got); i++ {
		if got[i] < got[i-1] {
			t.Fatalf("percentile curve not monotone: %v", got)
		}
	}
}

func TestDiffPercentilesEmpty(t *testing.T) {
	a := newResult("a", "t")
	b := newResult("b", "t")
	got := DiffPercentiles(a, b, []float64{50})
	if got[0] != 0 {
		t.Errorf("empty percentiles = %v", got)
	}
}

func TestBranchAccZero(t *testing.T) {
	var b BranchAcc
	if b.Accuracy() != 0 {
		t.Error("zero BranchAcc accuracy should be 0")
	}
}
