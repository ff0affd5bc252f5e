package bp

import (
	"math/rand"
	"testing"
	"testing/quick"

	"branchcorr/internal/trace"
)

// loopTrace builds a for-type branch: taken n times then not-taken once,
// repeated iters times.
func loopTrace(pc trace.Addr, n, iters int) []trace.Record {
	var recs []trace.Record
	for i := 0; i < iters; i++ {
		for j := 0; j < n; j++ {
			recs = append(recs, backRec(pc, true))
		}
		recs = append(recs, backRec(pc, false))
	}
	return recs
}

func TestLoopPredictorForType(t *testing.T) {
	recs := loopTrace(0x40, 9, 100)
	p := NewLoop()
	miss := 0
	for i, r := range recs {
		if i >= 10 { // first iteration's exit is unknowable
			if p.Predict(r) != r.Taken {
				miss++
			}
		}
		p.Update(r)
	}
	if miss > 0 {
		t.Errorf("loop predictor missed %d times on a steady for-loop", miss)
	}
	if p.StateCount() != 1 {
		t.Errorf("StateCount = %d", p.StateCount())
	}
}

func TestLoopPredictorWhileType(t *testing.T) {
	// not-taken 5 times then taken once.
	var recs []trace.Record
	for i := 0; i < 100; i++ {
		for j := 0; j < 5; j++ {
			recs = append(recs, rec(0x80, false))
		}
		recs = append(recs, rec(0x80, true))
	}
	p := NewLoop()
	miss := 0
	for i, r := range recs {
		if i >= 6 {
			if p.Predict(r) != r.Taken {
				miss++
			}
		}
		p.Update(r)
	}
	if miss > 0 {
		t.Errorf("loop predictor missed %d times on a steady while-loop", miss)
	}
}

func TestLoopPredictorTripCountChange(t *testing.T) {
	// Trip count changes once: exactly the iterations around the change
	// may miss, then it re-locks.
	recs := append(loopTrace(0x40, 4, 50), loopTrace(0x40, 7, 50)...)
	p := NewLoop()
	missLate := 0
	for i, r := range recs {
		pred := p.Predict(r)
		// After the regime change has been absorbed (two periods in),
		// it must be perfect again.
		if i >= 50*5+2*8 && pred != r.Taken {
			missLate++
		}
		p.Update(r)
	}
	if missLate > 0 {
		t.Errorf("loop predictor missed %d times after re-locking to a new trip count", missLate)
	}
}

func TestLoopPredictorBiasedBranch(t *testing.T) {
	// An always-taken branch: loop predictor should never mispredict
	// (no completed run, keeps predicting the run direction).
	p := NewLoop()
	for i := 0; i < 1000; i++ {
		r := backRec(0x40, true)
		if i > 0 && p.Predict(r) != r.Taken {
			t.Fatalf("miss at %d on always-taken branch", i)
		}
		p.Update(r)
	}
}

func TestLoopPredictorDirectionRecovery(t *testing.T) {
	// A while-type branch whose very first observed outcome is its rare
	// (taken) exit: direction must flip and then predict well.
	var recs []trace.Record
	recs = append(recs, rec(0x90, true))
	for i := 0; i < 50; i++ {
		for j := 0; j < 6; j++ {
			recs = append(recs, rec(0x90, false))
		}
		recs = append(recs, rec(0x90, true))
	}
	p := NewLoop()
	miss := 0
	for i, r := range recs {
		if i >= 15 {
			if p.Predict(r) != r.Taken {
				miss++
			}
		}
		p.Update(r)
	}
	if miss > 2 {
		t.Errorf("loop predictor missed %d times after direction recovery", miss)
	}
}

func TestLoopPredictorColdUsesBTFNT(t *testing.T) {
	p := NewLoop()
	if !p.Predict(backRec(0x40, false)) {
		t.Error("cold backward branch should predict taken")
	}
	if p.Predict(rec(0x44, false)) {
		t.Error("cold forward branch should predict not-taken")
	}
}

func TestBlockPredictorSteadyBlocks(t *testing.T) {
	// taken 3, not-taken 5, repeating.
	var recs []trace.Record
	for i := 0; i < 100; i++ {
		for j := 0; j < 3; j++ {
			recs = append(recs, rec(0xA0, true))
		}
		for j := 0; j < 5; j++ {
			recs = append(recs, rec(0xA0, false))
		}
	}
	p := NewBlock()
	miss := 0
	for i, r := range recs {
		if i >= 16 { // first full period is training
			if p.Predict(r) != r.Taken {
				miss++
			}
		}
		p.Update(r)
	}
	if miss > 0 {
		t.Errorf("block predictor missed %d times on steady 3T/5N blocks", miss)
	}
	if p.Name() != "block" {
		t.Errorf("Name = %q", p.Name())
	}
}

func TestBlockPredictorIsLoopSuperset(t *testing.T) {
	// A for-loop is a block pattern with m=1: block predictor must also
	// lock onto it.
	recs := loopTrace(0x40, 6, 80)
	p := NewBlock()
	miss := 0
	for i, r := range recs {
		if i >= 14 {
			if p.Predict(r) != r.Taken {
				miss++
			}
		}
		p.Update(r)
	}
	if miss > 0 {
		t.Errorf("block predictor missed %d times on a for-loop", miss)
	}
}

func TestFixedKExactPeriod(t *testing.T) {
	pat := []bool{true, false, false, true, true, false, true} // period 7
	for _, k := range []int{7, 14, 21} {
		p := NewFixedK(k)
		miss := 0
		for i := 0; i < 700; i++ {
			r := rec(0x40, pat[i%7])
			if i >= k && p.Predict(r) != r.Taken {
				miss++
			}
			p.Update(r)
		}
		if miss > 0 {
			t.Errorf("fixed-k(%d) missed %d times on a period-7 pattern", k, miss)
		}
	}
}

func TestFixedKWrongPeriodMisses(t *testing.T) {
	pat := []bool{true, true, false} // period 3
	p := NewFixedK(2)
	miss := 0
	for i := 0; i < 300; i++ {
		r := rec(0x40, pat[i%3])
		if i >= 2 && p.Predict(r) != r.Taken {
			miss++
		}
		p.Update(r)
	}
	if miss == 0 {
		t.Error("fixed-k(2) should mispredict a period-3 pattern sometimes")
	}
}

// packOutcomes packs an outcome sequence into the per-branch stream
// shape FixedKCounts and ClassScorer read: bit i of the words is
// outcome i, zero past the last.
func packOutcomes(outs []bool) []uint64 {
	words := make([]uint64, (len(outs)+63)/64)
	for i, o := range outs {
		if o {
			words[i>>6] |= 1 << (uint(i) & 63)
		}
	}
	return words
}

func TestBestFixedKFindsBestPeriod(t *testing.T) {
	pat := []bool{true, false, true, true, false} // period 5
	outs := make([]bool, 500)
	for i := range outs {
		outs[i] = pat[i%5]
	}
	best := BestFixedK(packOutcomes(outs), len(outs))
	if best.K%5 != 0 {
		t.Errorf("best period = %d, want a multiple of 5", best.K)
	}
	if best.Total != 500 {
		t.Errorf("Total = %d", best.Total)
	}
	// After warmup the winning period is perfect: at most K initial
	// predictions can miss.
	if best.Correct < 500-best.K {
		t.Errorf("Correct = %d, want >= %d", best.Correct, 500-best.K)
	}
}

// Property: for any outcome sequence, FixedKCounts' count for every
// period k equals a direct simulation of NewFixedK(k), and BestFixedK
// picks the highest count with ties to the lowest k. Lengths cover the
// word boundaries and streams shorter than k.
func TestFixedKCountsMatchesFixedK(t *testing.T) {
	check := func(outs []bool) bool {
		got := FixedKCounts(packOutcomes(outs), len(outs))
		want := BestFixed{Correct: -1, Total: len(outs)}
		for k := 1; k <= MaxFixedPeriod; k++ {
			p := NewFixedK(k)
			direct := 0
			for _, o := range outs {
				r := rec(0x40, o)
				if p.Predict(r) == o {
					direct++
				}
				p.Update(r)
			}
			if got[k-1] != direct {
				t.Logf("m=%d k=%d: FixedKCounts %d, FixedK %d", len(outs), k, got[k-1], direct)
				return false
			}
			if direct > want.Correct {
				want.Correct, want.K = direct, k
			}
		}
		if len(outs) > 0 && BestFixedK(packOutcomes(outs), len(outs)) != want {
			t.Logf("m=%d: BestFixedK %+v, want %+v", len(outs), BestFixedK(packOutcomes(outs), len(outs)), want)
			return false
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
	rng := rand.New(rand.NewSource(5))
	for _, m := range []int{0, 1, 2, 31, 32, 33, 63, 64, 65, 127, 128, 129, 300} {
		outs := make([]bool, m)
		for i := range outs {
			outs[i] = rng.Intn(4) != 0
		}
		if !check(outs) {
			t.Errorf("m=%d: counts differ from the FixedK predictors", m)
		}
	}
}

func TestOutcomeRing(t *testing.T) {
	var o outcomeRing
	if _, ok := o.kAgo(1); ok {
		t.Error("empty ring should have no history")
	}
	o.push(true)
	o.push(false)
	o.push(true) // newest
	cases := []struct {
		k    int
		want bool
	}{{1, true}, {2, false}, {3, true}}
	for _, c := range cases {
		got, ok := o.kAgo(c.k)
		if !ok || got != c.want {
			t.Errorf("kAgo(%d) = %v,%v want %v,true", c.k, got, ok, c.want)
		}
	}
	if _, ok := o.kAgo(4); ok {
		t.Error("kAgo beyond recorded history should report absence")
	}
}
