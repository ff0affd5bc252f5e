package bp

import (
	"testing"

	"branchcorr/internal/trace"
)

func TestProfiledGshareSameSetMatchesAdaptive(t *testing.T) {
	// On a strongly patterned trace, profiling and testing on the same
	// set, the static PHT should be at least as accurate as the adaptive
	// gshare minus its training overhead (the Sechrest/Young result).
	tr := trace.New("p", 0)
	for i := 0; i < 20000; i++ {
		tr.Append(rec(0x100, i%4 != 3))             // loop of 3
		tr.Append(rec(0x104, (i/2)%2 == 0))         // period 4
		tr.Append(rec(0x108, i%4 != 3 && i%2 == 0)) // correlated with both
	}
	prof := NewProfiledGshare(tr, 10)
	adap := NewGshare(10)
	profCorrect, adapCorrect := 0, 0
	pt := tr.Packed()
	for i := 0; i < pt.Len(); i++ {
		r := pt.Record(i)
		if prof.Predict(r) == r.Taken {
			profCorrect++
		}
		prof.Update(r)
		if adap.Predict(r) == r.Taken {
			adapCorrect++
		}
		adap.Update(r)
	}
	if profCorrect < adapCorrect {
		t.Errorf("profiled %d below adaptive %d on the profiling set", profCorrect, adapCorrect)
	}
	if float64(profCorrect)/float64(tr.Len()) < 0.95 {
		t.Errorf("profiled accuracy %.3f too low on a fully periodic trace",
			float64(profCorrect)/float64(tr.Len()))
	}
}

func TestProfiledGshareStatic(t *testing.T) {
	tr := trace.New("p", 0)
	for i := 0; i < 100; i++ {
		tr.Append(rec(0x40, true))
	}
	p := NewProfiledGshare(tr, 6)
	if !p.Predict(rec(0x40, false)) {
		t.Error("profiled entry should predict the profiled majority")
	}
	// Updates must not retrain the PHT (only the history register).
	firstIdx := p.Predict(rec(0x40, false))
	for i := 0; i < 10; i++ {
		p.Update(rec(0x40, false))
	}
	// Reset history to the profile-start state by pushing the same
	// outcomes the profile saw.
	p.history = 0
	if p.Predict(rec(0x40, false)) != firstIdx {
		t.Error("static PHT changed under updates")
	}
	if p.Name() != "profiled-gshare(6)" {
		t.Errorf("Name = %q", p.Name())
	}
}

func TestProfiledGsharePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on bad bits")
		}
	}()
	NewProfiledGshare(trace.New("x", 0), 0)
}
