package sim

import (
	"fmt"
	"math/bits"
	"slices"
	"testing"

	"branchcorr/internal/bp"
	"branchcorr/internal/obs"
)

// hitBuckets are the bucket sizes the hit-column tests segment runs at:
// none, sizes that are not multiples of 64 (so kernel segments start and
// end inside a hit word), one word, and a single record.
var hitBuckets = []int{0, 1, 63, 64, 100, 777, 1000}

// TestSimulateHitsMatchesReference pins Options.Hits: for every
// kernel-backed spec, the hit columns Simulate keeps on the fast path
// equal the reference loop's bit for bit, at every bucket size (each
// bucket boundary splits a kernel call, often inside a word), and each
// column's popcount is its Result's correct total. Results and
// timelines stay what they are without Hits.
func TestSimulateHitsMatchesReference(t *testing.T) {
	tr := randomTrace(9, 12_345)
	for _, spec := range kernelSpecs {
		for _, bucket := range hitBuckets {
			ctxt := fmt.Sprintf("%s bucket=%d", spec, bucket)
			ref := Simulate(tr, []bp.Predictor{mkSpec(t, spec, tr)}, Options{Hits: true, BucketSize: bucket, ForceReference: true})
			got := Simulate(tr, []bp.Predictor{mkSpec(t, spec, tr)}, Options{Hits: true, BucketSize: bucket})
			plain := Simulate(tr, []bp.Predictor{mkSpec(t, spec, tr)}, Options{BucketSize: bucket})
			sameResult(t, ctxt, ref.Results[0], got.Results[0])
			sameResult(t, ctxt+" without hits", plain.Results[0], got.Results[0])
			if bucket > 0 && !slices.Equal(plain.Timelines[0].Accuracy, got.Timelines[0].Accuracy) {
				t.Errorf("%s: timeline with hits differs from the plain run's", ctxt)
			}
			if !slices.Equal(ref.Hits[0], got.Hits[0]) {
				t.Errorf("%s: kernel hit column differs from the reference loop's", ctxt)
			}
			ones := 0
			for _, w := range got.Hits[0] {
				ones += bits.OnesCount64(w)
			}
			if ones != got.Results[0].Correct || len(got.Hits[0]) != (tr.Len()+63)/64 {
				t.Errorf("%s: hit column holds %d bits in %d words for %d correct of %d", ctxt, ones, len(got.Hits[0]), got.Results[0].Correct, tr.Len())
			}
		}
	}
}

// TestSimulateHitsEngine pins the engine choice under Options.Hits: a
// kernel with a column loop stays on the fast path, and one without
// (ifpas, the static predictors) runs on the reference loop, which
// writes the column per record.
func TestSimulateHitsEngine(t *testing.T) {
	tr := randomTrace(4, 3000)
	for _, c := range []struct {
		spec   string
		column bool
	}{{"gshare:12", true}, {"ifgshare:12", true}, {"tournament:10,10,12,12", true}, {"ifpas:12", false}, {"btfnt", false}} {
		reg := obs.New()
		p := mkSpec(t, c.spec, tr)
		Simulate(tr, []bp.Predictor{p}, Options{Hits: true, Observer: reg})
		fast := reg.Counter("sim.runs.fastpath").Value() == 1
		if fast != c.column || bp.HasColumn(p) != c.column {
			t.Errorf("%s: fast path %v, HasColumn %v, want %v", c.spec, fast, bp.HasColumn(p), c.column)
		}
	}
}

// TestHitTimelineMatchesBucketed pins the popcount timeline against
// Options.BucketSize: for bucket sizes that are not multiples of 64,
// ones that leave a trailing partial bucket, and ones longer than the
// trace, HitTimeline over a run's hit column returns the bucketed run's
// Timeline exactly (the same float divisions of the same counts).
func TestHitTimelineMatchesBucketed(t *testing.T) {
	tr := randomTrace(21, 10_007)
	for _, spec := range []string{"gshare:12", "ifgshare:12", "bimodal:10", "pas:10,9,3"} {
		hits := Simulate(tr, []bp.Predictor{mkSpec(t, spec, tr)}, Options{Hits: true}).Hits[0]
		for _, bucket := range []int{1, 63, 64, 100, 500, 777, 1000, 10_007, 20_000} {
			want := Simulate(tr, []bp.Predictor{mkSpec(t, spec, tr)}, Options{BucketSize: bucket}).Timelines[0]
			got := HitTimeline(want.Predictor, hits, tr.Len(), bucket)
			if got.Predictor != want.Predictor || got.Bucket != want.Bucket || !slices.Equal(got.Accuracy, want.Accuracy) {
				t.Errorf("%s bucket=%d: popcount timeline (%d buckets) differs from the bucketed run's (%d)",
					spec, bucket, len(got.Accuracy), len(want.Accuracy))
			}
		}
	}
}

// TestOnesIn checks the range popcount against a bit-by-bit count at
// every range bound around word edges.
func TestOnesIn(t *testing.T) {
	hits := []uint64{0xdeadbeefcafef00d, ^uint64(0), 0x0123456789abcdef, 1 << 63}
	for lo := 0; lo <= 256; lo++ {
		for hi := lo; hi <= 256; hi++ {
			want := 0
			for i := lo; i < hi; i++ {
				want += int(hits[i>>6] >> (uint(i) & 63) & 1)
			}
			if got := onesIn(hits, lo, hi); got != want {
				t.Fatalf("onesIn [%d,%d) = %d, want %d", lo, hi, got, want)
			}
		}
	}
}
