package core

import (
	"testing"

	"branchcorr/internal/bp"
	"branchcorr/internal/sim"
	"branchcorr/internal/trace"
)

func TestOnlineSelectiveFindsCorrelation(t *testing.T) {
	tr := correlatedPair(12000, 2)
	p := NewOnlineSelective(1, 16, 256)
	res := sim.Simulate(tr, []bp.Predictor{p}, sim.Options{}).Results[0]
	if acc := res.Branch(0x200).Accuracy(); acc < 0.95 {
		t.Errorf("online selective on correlated branch = %.3f, want >= 0.95", acc)
	}
}

func TestOnlineSelectiveAntiCorrelation(t *testing.T) {
	// X is the INVERSE of Y: the agreement score saturates negative and
	// |score| adoption must still exploit it.
	tr := trace.New("anti", 0)
	rng := lcg(23)
	for i := 0; i < 12000; i++ {
		y := rng.bit()
		tr.Append(rec(0x100, y))
		tr.Append(rec(0x200, !y))
	}
	p := NewOnlineSelective(1, 16, 256)
	res := sim.Simulate(tr, []bp.Predictor{p}, sim.Options{}).Results[0]
	if acc := res.Branch(0x200).Accuracy(); acc < 0.95 {
		t.Errorf("online selective on anti-correlated branch = %.3f, want >= 0.95", acc)
	}
}

func TestOnlineSelectiveTwoRefs(t *testing.T) {
	// X = Y AND Z: needs both refs adopted.
	tr := trace.New("and", 0)
	ry, rz := lcg(31), lcg(32)
	for i := 0; i < 20000; i++ {
		y, z := ry.bit(), rz.bit()
		tr.Append(rec(0x100, y))
		tr.Append(rec(0x104, z))
		tr.Append(rec(0x200, y && z))
	}
	p := NewOnlineSelective(2, 16, 256)
	res := sim.Simulate(tr, []bp.Predictor{p}, sim.Options{}).Results[0]
	if acc := res.Branch(0x200).Accuracy(); acc < 0.93 {
		t.Errorf("online 2-ref selective on AND branch = %.3f, want >= 0.93", acc)
	}
}

func TestOnlineSelectiveBiasedFallback(t *testing.T) {
	// A heavily biased branch with no usable correlation must fall back
	// to its bias counter and stay near its bias.
	tr := trace.New("bias", 0)
	rng := lcg(41)
	for i := 0; i < 8000; i++ {
		tr.Append(rec(0x300, rng.bit())) // noise branch
		tr.Append(rec(0x400, i%20 != 19))
	}
	p := NewOnlineSelective(2, 16, 256)
	res := sim.Simulate(tr, []bp.Predictor{p}, sim.Options{}).Results[0]
	if acc := res.Branch(0x400).Accuracy(); acc < 0.93 {
		t.Errorf("online selective on biased branch = %.3f, want >= 0.93", acc)
	}
}

func TestOnlineSelectiveDeterministic(t *testing.T) {
	tr := correlatedPair(4000, 3)
	a := sim.Simulate(tr, []bp.Predictor{NewOnlineSelective(2, 16, 128)}, sim.Options{}).Results[0]
	b := sim.Simulate(tr, []bp.Predictor{NewOnlineSelective(2, 16, 128)}, sim.Options{}).Results[0]
	if a.Correct != b.Correct {
		t.Errorf("nondeterministic: %d vs %d", a.Correct, b.Correct)
	}
}

func TestOnlineSelectiveVsOracle(t *testing.T) {
	// On a cleanly correlated trace the online predictor should land
	// within a few points of the oracle-selected one.
	tr := correlatedPair(20000, 2)
	sels := Oracle(tr, OracleOptions{OracleConfig: OracleConfig{WindowLen: 16}})
	rs := sim.Simulate(tr, []bp.Predictor{NewSelective("oracle", 16, sels.BySize[1]), NewOnlineSelective(1, 16, 256)}, sim.Options{}).Results
	oracleAcc, onlineAcc := rs[0].Accuracy(), rs[1].Accuracy()
	if onlineAcc < oracleAcc-0.05 {
		t.Errorf("online (%.4f) too far below oracle (%.4f)", onlineAcc, oracleAcc)
	}
}

func TestOnlineSelectivePanics(t *testing.T) {
	for _, f := range []func(){
		func() { NewOnlineSelective(0, 16, 256) },
		func() { NewOnlineSelective(4, 16, 256) },
		func() { NewOnlineSelective(2, 16, 8) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
	if NewOnlineSelective(2, 16, 256).Name() != "online-selective(2,16)" {
		t.Error("name wrong")
	}
}

// The online predictor must also work as a drop-in bp.Predictor inside a
// hybrid.
func TestOnlineSelectiveInHybrid(t *testing.T) {
	tr := correlatedPair(8000, 2)
	h := bp.NewHybrid(NewOnlineSelective(1, 16, 256), bp.NewBimodal(12), 10)
	res := sim.Simulate(tr, []bp.Predictor{h}, sim.Options{}).Results[0]
	if acc := res.Branch(0x200).Accuracy(); acc < 0.9 {
		t.Errorf("hybrid with online selective on correlated branch = %.4f", acc)
	}
}
