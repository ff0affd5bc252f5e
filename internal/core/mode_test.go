package core

import (
	"testing"

	"branchcorr/internal/bp"
	"branchcorr/internal/sim"
	"branchcorr/internal/trace"
)

func TestModeStrings(t *testing.T) {
	if ModeDirection.String() != "direction" || ModePresence.String() != "presence" {
		t.Error("mode strings wrong")
	}
	if Mode(7).String() != "mode(7)" {
		t.Error("unknown mode string")
	}
}

// Figure 2 of the paper: branch V's presence on the path (not its
// direction) determines X. A presence-only selective history must
// capture it fully.
func TestPresenceModeCapturesInPathCorrelation(t *testing.T) {
	tr := trace.New("inpath", 0)
	rng := lcg(17)
	noise := lcg(19)
	for i := 0; i < 8000; i++ {
		viaV := rng.bit()
		if viaV {
			// V is reached; its own direction is random (irrelevant).
			tr.Append(rec(0x150, noise.bit()))
		} else {
			tr.Append(rec(0x160, noise.bit()))
		}
		tr.Append(rec(0x200, viaV)) // X taken iff V was in the path
	}
	// The window must not span iterations, or a stale V stays "in the
	// path" and the presence signal washes out.
	assign := Assignment{0x200: {Ref{0x150, Occurrence, 0}}}
	pres := NewSelectiveMode("pres", 1, assign, ModePresence)
	res := sim.Simulate(tr, []bp.Predictor{pres}, sim.Options{}).Results[0]
	if acc := res.Branch(0x200).Accuracy(); acc < 0.99 {
		t.Errorf("presence-mode accuracy on in-path-correlated branch = %.3f", acc)
	}
}

// When the correlation is purely directional (the correlated branch is
// always in the path), presence mode must lose what direction mode
// keeps.
func TestPresenceModeMissesDirectionCorrelation(t *testing.T) {
	tr := correlatedPair(6000, 2)
	assign := Assignment{0x200: {Ref{0x100, Occurrence, 0}}}
	dir := NewSelectiveMode("dir", 16, assign, ModeDirection)
	pres := NewSelectiveMode("pres", 16, assign, ModePresence)
	rs := sim.Simulate(tr, []bp.Predictor{dir, pres}, sim.Options{}).Results
	dAcc := rs[0].Branch(0x200).Accuracy()
	pAcc := rs[1].Branch(0x200).Accuracy()
	if dAcc < 0.99 {
		t.Fatalf("direction-mode accuracy = %.3f", dAcc)
	}
	if pAcc > 0.65 {
		t.Errorf("presence-mode accuracy = %.3f, want near 0.5 (no in-path signal)", pAcc)
	}
}

// Direction mode subsumes presence information, so on any trace it
// should not lose to presence mode beyond adaptive noise.
func TestDirectionModeSubsumesPresence(t *testing.T) {
	tr := correlatedPair(4000, 3)
	sels := Oracle(tr, OracleOptions{OracleConfig: OracleConfig{WindowLen: 16}})
	dir := NewSelectiveMode("dir", 16, sels.BySize[3], ModeDirection)
	pres := NewSelectiveMode("pres", 16, sels.BySize[3], ModePresence)
	rs := sim.Simulate(tr, []bp.Predictor{dir, pres}, sim.Options{}).Results
	if rs[0].Accuracy() < rs[1].Accuracy()-0.01 {
		t.Errorf("direction mode (%.4f) lost to presence mode (%.4f)",
			rs[0].Accuracy(), rs[1].Accuracy())
	}
}
