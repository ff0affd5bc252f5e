package entropy

import (
	"fmt"
	"testing"

	"branchcorr/internal/trace"
	"branchcorr/internal/workloads"
)

// benchCeilingTraces caches the benchmark traces per name and length
// across sub-benchmarks.
var benchCeilingTraces = map[string]*trace.Trace{}

// benchCeilingTrace returns the named trace of n records: "gcc" is the
// suite's gcc stand-in, whose few dozen static branches put every record
// in a bucket on folder.count's dense-table side; "sparse" is a random
// trace with about 50 records per static branch, every bucket well
// under the cut-off, so the sort side runs.
func benchCeilingTrace(b *testing.B, name string, n int) *trace.Trace {
	b.Helper()
	key := fmt.Sprintf("%s/%d", name, n)
	if tr, ok := benchCeilingTraces[key]; ok {
		return tr
	}
	var tr *trace.Trace
	switch name {
	case "gcc":
		w, err := workloads.ByName("gcc")
		if err != nil {
			b.Fatal(err)
		}
		tr = w.Generate(n)
	case "sparse":
		tr = randomTrace(6, n, n/50, false)
	}
	tr.Packed() // the suite hands ceilings an already-packed trace
	benchCeilingTraces[key] = tr
	return tr
}

// ceilingSink keeps the measured calls' results live.
var ceilingSink *Result

// BenchmarkEntropyCeilings measures the ceiling exhibit's per-trace cost
// at its 12-bit contexts: the map-based reference (one lookup per record
// per history length) against the count-once-and-fold path over the
// packed view. The impl=ref / impl=fold pair at each kind and length is
// the speedup BENCH_sim.json records; the fold path also runs on a
// sparse trace, so both sides of folder.count's dense/sort choice have a
// recorded cost.
func BenchmarkEntropyCeilings(b *testing.B) {
	const maxK = 12
	impls := []struct {
		name string
		run  func(*trace.Trace, int, kind) *Result
	}{{"ref", referenceCeilings}, {"fold", ceilings}}
	for _, kd := range []struct {
		name string
		k    kind
	}{{"local", localKind}, {"global", globalKind}} {
		for _, n := range []int{200_000, 1_000_000} {
			for _, name := range []string{"gcc", "sparse"} {
				tr := benchCeilingTrace(b, name, n)
				for _, impl := range impls {
					if name == "sparse" && impl.name == "ref" {
						continue // seconds per call on its many map entries; the gcc pair already records the speedup
					}
					b.Run(fmt.Sprintf("kind=%s/len=%d/trace=%s/impl=%s", kd.name, n, name, impl.name), func(b *testing.B) {
						for i := 0; i < b.N; i++ {
							ceilingSink = impl.run(tr, maxK, kd.k)
						}
						b.ReportMetric(float64(tr.Len()*b.N)/b.Elapsed().Seconds(), "branches/s")
					})
				}
			}
		}
	}
}
