package sim

import (
	"testing"

	"branchcorr/internal/bp"
	"branchcorr/internal/trace"
)

func TestRunTimeline(t *testing.T) {
	// A branch that flips its bias halfway: the bimodal timeline must
	// show high accuracy in both halves with a dip at the transition.
	tr := trace.New("tl", 0)
	for i := 0; i < 10_000; i++ {
		tr.Append(rec(0x40, i < 5_000))
	}
	tls := Simulate(tr, []bp.Predictor{bp.NewBimodal(10), bp.AlwaysTaken{}}, Options{BucketSize: 1000}).Timelines
	if len(tls) != 2 {
		t.Fatalf("timelines: %d", len(tls))
	}
	bimodal := tls[0]
	if bimodal.Predictor != "bimodal(10)" || bimodal.Bucket != 1000 {
		t.Fatalf("labels: %+v", bimodal)
	}
	if len(bimodal.Accuracy) != 10 {
		t.Fatalf("buckets: %d", len(bimodal.Accuracy))
	}
	if bimodal.Accuracy[2] < 0.99 || bimodal.Accuracy[8] < 0.99 {
		t.Errorf("steady-state buckets should be ~1: %v", bimodal.Accuracy)
	}
	// AlwaysTaken: exactly 1.0 in the first half, 0.0 in the second.
	at := tls[1]
	if at.Accuracy[0] != 1 || at.Accuracy[9] != 0 {
		t.Errorf("always-taken timeline wrong: %v", at.Accuracy)
	}
	// Overall accuracy reconstructed from buckets must match a direct
	// run.
	direct := Simulate(tr, []bp.Predictor{bp.NewBimodal(10)}, Options{}).Results[0]
	sum := 0.0
	for _, a := range bimodal.Accuracy {
		sum += a * 1000
	}
	if int(sum+0.5) != direct.Correct {
		t.Errorf("bucket sum %d != direct correct %d", int(sum+0.5), direct.Correct)
	}
}

func TestRunTimelinePartialBucket(t *testing.T) {
	tr := trace.New("tl", 0)
	for i := 0; i < 2500; i++ {
		tr.Append(rec(0x40, true))
	}
	tls := Simulate(tr, []bp.Predictor{bp.AlwaysTaken{}}, Options{BucketSize: 1000}).Timelines
	if len(tls[0].Accuracy) != 3 {
		t.Fatalf("buckets: %v", tls[0].Accuracy)
	}
	if tls[0].Accuracy[2] != 1 {
		t.Errorf("partial bucket accuracy: %v", tls[0].Accuracy[2])
	}
}
