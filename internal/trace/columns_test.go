package trace_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"branchcorr/internal/corpus"
	"branchcorr/internal/obs"
	"branchcorr/internal/trace"
	"branchcorr/internal/workloads"
)

// randomRecords draws n records over the given number of sites, whose
// PCs are random 32-bit values, so they collide in the intern's PC
// cache. The backward bit is drawn per record, so a site's first
// occurrence and its later ones may disagree.
func randomRecords(rng *rand.Rand, n, sites int) []trace.Record {
	pcs := make([]trace.Addr, sites)
	for i := range pcs {
		pcs[i] = trace.Addr(rng.Uint32())
	}
	recs := make([]trace.Record, n)
	for i := range recs {
		recs[i] = trace.Record{
			PC:       pcs[rng.Intn(sites)],
			Taken:    rng.Intn(3) != 0,
			Backward: rng.Intn(4) == 0,
		}
	}
	return recs
}

func checkPacked(t *testing.T, what string, got *trace.Packed, name string, recs []trace.Record) {
	t.Helper()
	if d := trace.PackedDiff(got, trace.ReferencePack(name, recs)); d != "" {
		t.Fatalf("%s: %s", what, d)
	}
}

// TestPackedMatchesReference pins every way a trace's columns get built
// to the record-at-a-time reference pack: IDs, addresses, per-ID tallies
// and both bitsets, padding included. Views taken before a later Append
// must still equal the reference of their own prefix.
func TestPackedMatchesReference(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 65, 200, 4096} {
		for _, sites := range []int{1, 7, 300} {
			t.Run(fmt.Sprintf("n=%d/sites=%d", n, sites), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(n*1000 + sites)))
				recs := randomRecords(rng, n, sites)
				checkPacked(t, "FromRecords", trace.FromRecords("r", recs).Packed(), "r", recs)

				var buf bytes.Buffer
				if err := trace.FromRecords("r", recs).Write(&buf); err != nil {
					t.Fatal(err)
				}
				read, err := trace.Read(&buf)
				if err != nil {
					t.Fatal(err)
				}
				checkPacked(t, "Read", read.Packed(), "r", recs)

				// Append after Packed, at cut points on and off the
				// bitset word boundary.
				tr := trace.New("a", 0)
				type cut struct {
					view *trace.Packed
					n    int
				}
				var cuts []cut
				for i, r := range recs {
					if i == 1 || i == n/2 || i == n-1 || i%64 == 63 {
						cuts = append(cuts, cut{tr.Packed(), i})
					}
					tr.Append(r)
				}
				checkPacked(t, "Append", tr.Packed(), "a", recs)
				for _, c := range cuts {
					checkPacked(t, fmt.Sprintf("view at %d after later Appends", c.n), c.view, "a", recs[:c.n])
				}
			})
		}
	}
}

// TestInterleaveMatchesReference pins Interleave's output columns to the
// reference pack of the round-robin record order, for sources whose views
// were and were not built beforehand.
func TestInterleaveMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := randomRecords(rng, 130, 5)
	b := randomRecords(rng, 61, 40)
	var want []trace.Record
	const quantum = 17
	for lo := 0; lo < len(a) || lo < len(b); lo += quantum {
		want = append(want, a[min(lo, len(a)):min(lo+quantum, len(a))]...)
		want = append(want, b[min(lo, len(b)):min(lo+quantum, len(b))]...)
	}
	ta, tb := trace.FromRecords("a", a), trace.FromRecords("b", b)
	checkPacked(t, "Interleave", trace.Interleave("ab", quantum, ta, tb).Packed(), "ab", want)
	ta.Packed()
	checkPacked(t, "Interleave of packed sources", trace.Interleave("ab", quantum, ta, tb).Packed(), "ab", want)
}

// TestCorpusRoundTripMatchesReference pins the corpus hit path: a trace
// stored with PutPacked and loaded by GetTrace wraps columns equal to
// the reference, and appending to it leaves the loaded view unchanged.
func TestCorpusRoundTripMatchesReference(t *testing.T) {
	store, err := corpus.Open(t.TempDir(), obs.New())
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{0, 1, 65, 5000} {
		recs := randomRecords(rand.New(rand.NewSource(int64(n))), n, 50)
		key := corpus.Key("rand", n, "test")
		if err := store.PutPacked(key, trace.FromRecords("rand", recs).Packed()); err != nil {
			t.Fatal(err)
		}
		got, err := store.GetTrace(key, func() *trace.Trace {
			t.Fatalf("n=%d: GetTrace missed a stored entry", n)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		loaded := got.Packed()
		checkPacked(t, fmt.Sprintf("n=%d: GetTrace", n), loaded, "rand", recs)
		extra := trace.Record{PC: 0x9990, Taken: true, Backward: true}
		got.Append(extra)
		checkPacked(t, fmt.Sprintf("n=%d: loaded view after Append", n), loaded, "rand", recs)
		checkPacked(t, fmt.Sprintf("n=%d: view after Append", n), got.Packed(), "rand", append(recs, extra))
	}
}

// TestTraceBytesPerRecord pins the in-memory cost of a workload trace
// with its packed view built: a 4-byte ID and two bits per record, plus
// the intern table. A per-record struct kept beside the columns (an
// 8-byte Record slice cost about 12 B per record in all) fails it.
func TestTraceBytesPerRecord(t *testing.T) {
	const n = 200_000
	w, err := workloads.ByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	w.Generate(1000) // any one-time generator state stays out of the count
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	tr := w.Generate(n)
	tr.Packed()
	runtime.GC()
	runtime.ReadMemStats(&after)
	perRecord := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / n
	t.Logf("%.2f B per record", perRecord)
	if perRecord > 5 {
		t.Errorf("a %d-record trace holds %.2f B per record, want at most 5", n, perRecord)
	}
	runtime.KeepAlive(tr)
}
