package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
)

// benchmarkFile is the part of BENCHMARK.json compare mode needs.
type benchmarkFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmark(path string) (benchmarkFile, error) {
	var bf benchmarkFile
	b, err := os.ReadFile(path)
	if err != nil {
		return bf, err
	}
	return bf, json.Unmarshal(b, &bf)
}

// readRecords collects the untraced run records in a file holding the
// concatenated output of several runs.
func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		line, ok := strings.CutPrefix(sc.Text(), "record ")
		if !ok {
			continue
		}
		var r record
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if !r.Trace {
			out = append(out, r)
		}
	}
	return out, sc.Err()
}

// verdict applies the paired-comparison rule: a gain needs the change to
// win at least nine tenths of the pairs (ties count for neither) and the
// medians to differ by more than the parent's own quartile spread; a
// spread wider than the bound leaves the metric unresolved unless every
// change run beats every parent run; otherwise the change is worse when
// its median is worse than the parent's by more than the bound.
func verdict(parent, change []float64, higherBetter bool, bound float64) (string, int, int) {
	better := func(a, b float64) bool {
		if higherBetter {
			return a > b
		}
		return a < b
	}
	pairs := min(len(parent), len(change))
	won := 0
	for i := 0; i < pairs; i++ {
		if better(change[i], parent[i]) {
			won++
		}
	}
	pm, cm := median(parent), median(change)
	q1, q3 := quartiles(parent)
	spread := q3 - q1
	diff := cm - pm
	if pairs > 0 && 10*won >= 9*pairs && abs(diff) > spread && better(cm, pm) {
		return "improved", won, pairs
	}
	allBetter := len(parent) > 0 && len(change) > 0
	for _, c := range change {
		for _, p := range parent {
			if !better(c, p) {
				allBetter = false
			}
		}
	}
	if pm != 0 && spread/abs(pm) > bound && !allBetter {
		return "unresolved", won, pairs
	}
	worseBy := diff / abs(pm)
	if higherBetter {
		worseBy = -worseBy
	}
	if pm != 0 && worseBy > bound {
		return "worse", won, pairs
	}
	return "no worse", won, pairs
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// compareFiles prints one row per workload × end-to-end metric.
func compareFiles(out *bufio.Writer, benchPath, parentPath, changePath string) error {
	bf, err := readBenchmark(benchPath)
	if err != nil {
		return err
	}
	parent, err := readRecords(parentPath)
	if err != nil {
		return err
	}
	change, err := readRecords(changePath)
	if err != nil {
		return err
	}
	byWorkload := func(rs []record) map[string][]record {
		m := map[string][]record{}
		for _, r := range rs {
			m[r.Workload] = append(m[r.Workload], r)
		}
		return m
	}
	pw, cw := byWorkload(parent), byWorkload(change)
	var names []string
	for name := range pw {
		if _, ok := cw[name]; ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	fmt.Fprintf(out, "%-20s %-16s %-6s %12s %12s %12s %12s %12s %12s %7s  %s\n",
		"workload", "metric", "unit", "parent p50", "parent q1", "parent q3",
		"change p50", "change q1", "change q3", "won", "verdict")
	for _, name := range names {
		for _, m := range bf.EndToEnd {
			values := func(rs []record) []float64 {
				var xs []float64
				for _, r := range rs {
					if v, ok := r.Metrics[m.Name]; ok {
						xs = append(xs, v.Value)
					}
				}
				return xs
			}
			p, c := values(pw[name]), values(cw[name])
			v, won, pairs := verdict(p, c, m.Better == "higher", m.Bound)
			pq1, pq3 := quartiles(p)
			cq1, cq3 := quartiles(c)
			fmt.Fprintf(out, "%-20s %-16s %-6s %12.6g %12.6g %12.6g %12.6g %12.6g %12.6g %3d/%-3d  %s\n",
				name, m.Name, m.Unit, median(p), pq1, pq3, median(c), cq1, cq3, won, pairs, v)
		}
	}
	return nil
}
