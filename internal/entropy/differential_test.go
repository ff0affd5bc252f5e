package entropy

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"branchcorr/internal/trace"
)

// randomTrace draws n records over sites static branches. Each site has
// its own taken bias, and a third of the sites copy an earlier record's
// outcome, so both local and global contexts carry signal and the
// context tables hold a spread of pure and mixed entries.
func randomTrace(seed int64, n, sites int, allTaken bool) *trace.Trace {
	rng := rand.New(rand.NewSource(seed))
	bias := make([]float64, sites)
	for i := range bias {
		bias[i] = rng.Float64()
	}
	tr := trace.New(fmt.Sprintf("rand-%d", seed), n)
	for i := 0; i < n; i++ {
		s := rng.Intn(sites)
		taken := rng.Float64() < bias[s]
		if s%3 == 0 && i >= 3 {
			taken = tr.At(i - 3).Taken
		}
		tr.Append(trace.Record{
			PC:       trace.Addr(0x1000 + 4*(s*7919%sites)),
			Taken:    taken || allTaken,
			Backward: s%5 == 0,
		})
	}
	return tr
}

// floatBits maps a float slice to its bit patterns, so an empty trace's
// 0/0 weighted aggregates (NaN) compare equal to themselves.
func floatBits(xs []float64) []uint64 {
	out := make([]uint64, len(xs))
	for i, x := range xs {
		out[i] = math.Float64bits(x)
	}
	return out
}

// TestCeilingsMatchReference is the differential gate for the
// count-once-and-fold path: on randomized traces, for both context kinds
// and history lengths spanning the range (0, 1, a mid value, the
// exhibit's 12, and MaxContext), every per-branch ceiling and weighted
// aggregate must equal the map-based reference bit for bit.
func TestCeilingsMatchReference(t *testing.T) {
	traces := []struct {
		name string
		tr   *trace.Trace
	}{
		{"empty", trace.New("empty", 0)},
		{"one-record", randomTrace(1, 1, 1, false)},
		{"one-branch", randomTrace(2, 40_000, 1, false)},
		{"few-branches", randomTrace(3, 30_000, 12, false)},
		{"many-branches", randomTrace(4, 30_000, 3_000, false)},
		{"all-taken", randomTrace(5, 20_000, 40, true)},
	}
	kinds := []struct {
		name string
		k    kind
	}{{"local", localKind}, {"global", globalKind}}
	for _, tc := range traces {
		for _, kd := range kinds {
			for _, maxK := range []int{0, 1, 5, 12, MaxContext} {
				t.Run(fmt.Sprintf("%s/%s/k=%d", tc.name, kd.name, maxK), func(t *testing.T) {
					want := referenceCeilings(tc.tr, maxK, kd.k)
					got := ceilings(tc.tr, maxK, kd.k)
					if !reflect.DeepEqual(got.PerBranch, want.PerBranch) {
						for pc, w := range want.PerBranch {
							if g := got.PerBranch[pc]; !reflect.DeepEqual(g, w) {
								t.Fatalf("branch 0x%x: got %+v, want %+v", uint32(pc), g, w)
							}
						}
						t.Fatalf("per-branch maps differ: %d vs %d branches", len(got.PerBranch), len(want.PerBranch))
					}
					if !reflect.DeepEqual(floatBits(got.Weighted), floatBits(want.Weighted)) {
						t.Errorf("Weighted = %v, want %v", got.Weighted, want.Weighted)
					}
					if !reflect.DeepEqual(floatBits(got.WeightedBits), floatBits(want.WeightedBits)) {
						t.Errorf("WeightedBits = %v, want %v", got.WeightedBits, want.WeightedBits)
					}
				})
			}
		}
	}
}
