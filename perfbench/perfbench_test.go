package main

import (
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"

	v1 "branchcorr/internal/api/v1"
	"branchcorr/internal/obs"
)

// tiny shrinks a workload so the whole benchmark runs in seconds.
func tiny(t *testing.T, w workload) workload {
	t.Helper()
	w.N = 2_000
	if w.Clients > 0 {
		w.N = 3_000
		w.PassLen, w.MinPasses, w.TracedLen = 100, 1, 100
		if w.Warm {
			w.PassLen, w.TracedLen = 300, 60
		}
		return w
	}
	s, err := newSuite(w, obs.New())
	if err != nil {
		t.Fatal(err)
	}
	text, err := buildAndRender(s, w.Exhibits)
	if err != nil {
		t.Fatal(err)
	}
	w.Digest = digest(text)
	return w
}

// counts keeps the per-layer metrics that come from the program's own
// counters, which must repeat exactly.
func counts(o *outcome) map[string]float64 {
	out := map[string]float64{}
	for _, d := range perLayer() {
		if d.Unit == "count" || d.Name == "service.cache_hit_ratio" ||
			d.Name == "sim.fastpath_share" || d.Name == "sim.sweep_fused_share" || d.Name == "experiments.memo_hit_ratio" {
			out[d.Name] = o.values[d.Name]
		}
	}
	return out
}

func TestWorkloadsTinyTwice(t *testing.T) {
	for _, w := range workloadTable {
		t.Run(w.Name, func(t *testing.T) {
			w := tiny(t, w)
			var layers []map[string]float64
			for rep := 0; rep < 2; rep++ {
				for _, traced := range []bool{false, true} {
					o, _, err := w.run(w, runOpts{seed: 3, seconds: 0.01, work: t.TempDir(), trace: traced})
					if err != nil {
						t.Fatal(err)
					}
					if o.failed != 0 || o.attempted == 0 {
						t.Fatalf("traced=%t: %d of %d operations failed: %v", traced, o.failed, o.attempted, o.failures)
					}
					defs := endToEnd
					if traced {
						defs = perLayer()
						layers = append(layers, counts(o))
					}
					for _, d := range defs {
						if _, ok := o.values[d.Name]; !ok {
							t.Errorf("traced=%t: %s not measured", traced, d.Name)
						}
					}
				}
			}
			for name, v := range layers[0] {
				if layers[1][name] != v {
					t.Errorf("%s: %v then %v", name, v, layers[1][name])
				}
			}
			switch {
			case w.Name == "figures-200k" && layers[0]["core.oracle_builds"] != 56,
				w.Name == "figures-kernels-1m" && layers[0]["core.oracle_builds"] != 0,
				w.Name == "serve-cold" && layers[0]["service.cache_hit_ratio"] != 0,
				w.Name == "serve-warm" && layers[0]["service.cache_hit_ratio"] != 1:
				t.Errorf("unexpected counters: %v", layers[0])
			}
		})
	}
}

func TestCorruptedReportCounted(t *testing.T) {
	w := workload{Name: "x", Digest: digest("report")}
	o := newOutcome()
	checkReport(o, w, "report", obs.New())
	if o.failed != 0 {
		t.Fatalf("intact report failed: %v", o.failures)
	}
	checkReport(o, w, "repOrt", obs.New())
	if o.failed != 1 {
		t.Fatalf("corrupted report counted %d failures, want 1", o.failed)
	}
	reg := obs.New()
	reg.Counter("core.oracle.builds").Inc()
	checkReport(o, w, "report", reg)
	if o.failed != 2 {
		t.Fatalf("unexpected oracle build counted %d failures, want 2", o.failed)
	}
}

func TestCorruptedResponseCounted(t *testing.T) {
	w, _ := workloadByName("serve-cold")
	w = tiny(t, w)
	stream, err := coldStream(5, w.N, w.PassLen)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := newReference(w.N, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var r request
	for _, r = range stream {
		if r.kind == "simulate" {
			break
		}
	}
	r.check = true
	s, err := startServer(w, t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := s.stop(); err != nil {
			t.Error(err)
		}
	}()
	code, body, err := s.post(r)
	if err != nil || code != 200 {
		t.Fatalf("post: %d %v", code, err)
	}
	if err := ref.verify(r, body); err != nil {
		t.Fatalf("intact response rejected: %v", err)
	}
	var resp v1.SimulateResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	resp.Results[0].Correct++
	wrong, err := v1.Marshal(resp)
	if err != nil {
		t.Fatal(err)
	}
	for name, b := range map[string][]byte{
		"wrong count":   wrong,
		"unknown field": []byte(strings.Replace(string(body), `"results"`, `"resultz"`, 1)),
		"truncated":     body[:len(body)/2],
	} {
		o := newOutcome()
		res := passResult{
			status:  []int{200},
			bodies:  map[string]bodyInfo{string(b): {kind: r.kind, n: 1}},
			checked: map[int]string{0: string(b)},
		}
		checkPass(o, w, []request{r}, res, obs.Snapshot{}, obs.Snapshot{}, ref)
		if o.failed == 0 {
			t.Errorf("%s: corrupted response accepted", name)
		}
	}
	o := newOutcome()
	res := passResult{status: []int{500}, bodies: map[string]bodyInfo{}, checked: map[int]string{}}
	checkPass(o, w, []request{r}, res, obs.Snapshot{}, obs.Snapshot{}, ref)
	if o.failed != 1 {
		t.Errorf("status 500 counted %d failures, want 1", o.failed)
	}
	o = newOutcome()
	hit := obs.Snapshot{Counters: map[string]int64{"service.cache.hits": 1}}
	checkPass(o, w, nil, passResult{}, obs.Snapshot{}, hit, ref)
	if o.failed != 1 {
		t.Errorf("cold cache hit counted %d failures, want 1", o.failed)
	}
}

func TestBenchmarkJSONMatchesTables(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf struct {
		benchmarkFile
		Workloads []struct{ Name, Why string } `json:"workloads"`
	}
	if err := json.Unmarshal(b, &bf); err != nil {
		t.Fatal(err)
	}
	if len(bf.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in the benchmark", len(bf.EndToEnd), len(endToEnd))
	}
	for i, m := range bf.EndToEnd {
		if d := endToEnd[i]; m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better || m.Bound != d.Bound {
			t.Errorf("end-to-end %d: %+v vs %+v", i, m, d)
		}
	}
	pl := perLayer()
	if len(bf.PerLayer) != len(pl) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in the benchmark", len(bf.PerLayer), len(pl))
	}
	for i, m := range bf.PerLayer {
		if d := pl[i]; m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("per-layer %d: %+v vs %+v", i, m, d)
		}
	}
	if len(bf.Workloads) != len(workloadTable) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the benchmark", len(bf.Workloads), len(workloadTable))
	}
	for i, w := range bf.Workloads {
		if w.Name != workloadTable[i].Name || w.Why != workloadTable[i].Why {
			t.Errorf("workload %d: %q vs %q", i, w.Name, workloadTable[i].Name)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	q1, q3 := quartiles(xs)
	if math.Abs(q1-2.75) > 1e-12 || math.Abs(q3-8.25) > 1e-12 || median(xs) != 5.5 {
		t.Errorf("quartiles %v %v median %v", q1, q3, median(xs))
	}
	if p := percentile(xs, 99); p != 10 {
		t.Errorf("p99 = %v", p)
	}
}

func TestVerdict(t *testing.T) {
	parent := []float64{10, 10.1, 9.9, 10, 10.2, 9.8, 10, 10.1, 9.9, 10}
	scale := func(f float64) []float64 {
		out := make([]float64, len(parent))
		for i, v := range parent {
			out[i] = v * f
		}
		return out
	}
	noisy := []float64{5, 15, 8, 12, 10, 6, 14, 9, 11, 10}
	for _, c := range []struct {
		name           string
		parent, change []float64
		higher         bool
		want           string
	}{
		{"faster", parent, scale(0.8), false, "improved"},
		{"same", parent, parent, false, "no worse"},
		{"slower", parent, scale(1.3), false, "worse"},
		{"slightly slower", parent, scale(1.05), false, "no worse"},
		{"lower throughput", parent, scale(0.8), true, "worse"},
		{"noisy parent", noisy, noisy, false, "unresolved"},
	} {
		if got, _, _ := verdict(c.parent, c.change, c.higher, 0.1); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}
