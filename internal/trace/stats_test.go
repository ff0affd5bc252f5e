package trace

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// referenceSummarize is the executable specification of Summarize: one
// map lookup per record, a site created at its first occurrence (which
// fixes its Backward bit).
func referenceSummarize(t *Trace) *Stats {
	st := &Stats{Name: t.Name(), Sites: make(map[Addr]*SiteStats)}
	for _, r := range records(t) {
		st.Dynamic++
		if r.Taken {
			st.Taken++
		}
		site := st.Sites[r.PC]
		if site == nil {
			site = &SiteStats{PC: r.PC, Backward: r.Backward}
			st.Sites[r.PC] = site
			st.Static++
			if r.Backward {
				st.BackwardSites++
			}
		}
		site.Count++
		if r.Taken {
			site.Taken++
		}
	}
	return st
}

// TestSummarizeMatchesReference pins the dense-ID Summarize to the
// map-walk reference on randomized traces, including sites whose
// per-record Backward bit varies (only the first occurrence's counts).
func TestSummarizeMatchesReference(t *testing.T) {
	for _, tc := range []struct{ n, sites int }{
		{0, 1}, {1, 1}, {5_000, 1}, {5_000, 37}, {20_000, 4_000},
	} {
		t.Run(fmt.Sprintf("n=%d/sites=%d", tc.n, tc.sites), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(tc.n + tc.sites)))
			tr := New("s", tc.n)
			for i := 0; i < tc.n; i++ {
				tr.Append(Record{
					PC:       Addr(0x400 + 4*rng.Intn(tc.sites)),
					Taken:    rng.Intn(3) != 0,
					Backward: rng.Intn(4) == 0,
				})
			}
			want := referenceSummarize(tr)
			if got := Summarize(tr); !reflect.DeepEqual(got, want) {
				t.Errorf("Summarize = %+v, want %+v", got, want)
			}
		})
	}
}
