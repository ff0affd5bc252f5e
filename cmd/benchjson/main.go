// Command benchjson converts `go test -bench` output on stdin into a
// stable JSON document on stdout, pairing impl=ref / impl=kernel
// sub-benchmarks into explicit speedup records. The repo's recorded
// performance baselines (BENCH_oracle.json, BENCH_sweep.json) are
// produced by piping the benchmarks through it — see the bench-*
// make targets.
//
// Every row is stamped with the parallelism it ran at: the GOMAXPROCS
// the testing package appended to the name (the "-8" suffix, stripped
// from the name itself) and the config-shard count parsed from a
// /shards=N segment (1 when absent). The document carries an env block
// with the "cpu:" header line and the run's GOMAXPROCS, so recorded
// throughput is attributable to a machine shape.
//
// Everything emitted derives from the input bytes alone — no
// timestamps, no host probing — so re-running the pipeline on the same
// numbers reproduces the same bytes.
package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// Benchmark is one parsed result line.
type Benchmark struct {
	Name       string             `json:"name"`
	Iterations int64              `json:"iterations"`
	Gomaxprocs int                `json:"gomaxprocs"`
	Shards     int                `json:"shards"`
	Metrics    map[string]float64 `json:"metrics"`
}

// Env is the machine shape the benchmarks ran at, as reported by the
// bench output itself.
type Env struct {
	CPU        string `json:"cpu,omitempty"`
	Gomaxprocs int    `json:"gomaxprocs,omitempty"`
}

// Speedup pairs one benchmark's baseline and optimized variants:
// impl=ref vs impl=kernel, impl=independent vs impl=fused (the sweep
// benchmarks), or impl=ref vs impl=fold (the entropy ceilings); the
// baseline fills the ref slot and the optimized variant the kernel slot.
type Speedup struct {
	Name          string  `json:"name"`
	RefNsPerOp    float64 `json:"ref_ns_per_op"`
	KernelNsPerOp float64 `json:"kernel_ns_per_op"`
	Speedup       float64 `json:"speedup"`
}

// Doc is the emitted document.
type Doc struct {
	Env        Env         `json:"env"`
	Benchmarks []Benchmark `json:"benchmarks"`
	Speedups   []Speedup   `json:"speedups,omitempty"`
}

// gomaxprocsSuffix is the "-8" style suffix go test appends to the last
// name segment (absent when GOMAXPROCS is 1).
var gomaxprocsSuffix = regexp.MustCompile(`-(\d+)$`)

// shardsSegment is the /shards=N name segment of the config-sharded
// sweep benchmarks.
var shardsSegment = regexp.MustCompile(`/shards=(\d+)(/|$)`)

// parse reads `go test -bench` output and returns the result lines in
// input order plus the environment gleaned from the headers and name
// suffixes.
func parse(r io.Reader) ([]Benchmark, Env, error) {
	var out []Benchmark
	env := Env{}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		if cpu, ok := strings.CutPrefix(line, "cpu:"); ok {
			env.CPU = strings.TrimSpace(cpu)
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		iters, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			continue // PASS/ok trailer or malformed line
		}
		name := strings.TrimPrefix(fields[0], "Benchmark")
		procs := 1
		if m := gomaxprocsSuffix.FindStringSubmatch(name); m != nil {
			procs, _ = strconv.Atoi(m[1])
			name = strings.TrimSuffix(name, m[0])
		}
		env.Gomaxprocs = max(env.Gomaxprocs, procs)
		shards := 1
		if m := shardsSegment.FindStringSubmatch(name); m != nil {
			shards, _ = strconv.Atoi(m[1])
		}
		b := Benchmark{
			Name:       name,
			Iterations: iters,
			Gomaxprocs: procs,
			Shards:     shards,
			Metrics:    map[string]float64{},
		}
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, env, fmt.Errorf("%s: bad metric value %q", b.Name, fields[i])
			}
			b.Metrics[fields[i+1]] = v
		}
		out = append(out, b)
	}
	return out, env, sc.Err()
}

// speedups pairs names that differ only in a baseline-vs-optimized
// /impl= segment (ref/kernel, independent/fused for the sweep
// benchmarks, or ref/fold for the entropy ceilings), sorted by name for
// stable output.
func speedups(benches []Benchmark) []Speedup {
	byImpl := map[string]map[string]float64{} // base name -> impl -> ns/op
	for _, b := range benches {
		var base, impl string
		switch {
		case strings.Contains(b.Name, "/impl=ref"):
			base, impl = strings.Replace(b.Name, "/impl=ref", "", 1), "ref"
		case strings.Contains(b.Name, "/impl=kernel"):
			base, impl = strings.Replace(b.Name, "/impl=kernel", "", 1), "kernel"
		case strings.Contains(b.Name, "/impl=independent"):
			base, impl = strings.Replace(b.Name, "/impl=independent", "", 1), "ref"
		case strings.Contains(b.Name, "/impl=fused"):
			base, impl = strings.Replace(b.Name, "/impl=fused", "", 1), "kernel"
		case strings.Contains(b.Name, "/impl=fold"):
			base, impl = strings.Replace(b.Name, "/impl=fold", "", 1), "kernel"
		default:
			continue
		}
		if byImpl[base] == nil {
			byImpl[base] = map[string]float64{}
		}
		byImpl[base][impl] = b.Metrics["ns/op"]
	}
	names := make([]string, 0, len(byImpl))
	for name := range byImpl {
		names = append(names, name)
	}
	sort.Strings(names)
	var out []Speedup
	for _, name := range names {
		pair := byImpl[name]
		ref, kernel := pair["ref"], pair["kernel"]
		if ref == 0 || kernel == 0 {
			continue // unmatched pair
		}
		out = append(out, Speedup{
			Name:          name,
			RefNsPerOp:    ref,
			KernelNsPerOp: kernel,
			Speedup:       float64(int(100*ref/kernel+0.5)) / 100,
		})
	}
	return out
}

func main() {
	benches, env, err := parse(os.Stdin)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	if len(benches) == 0 {
		fmt.Fprintln(os.Stderr, "benchjson: no benchmark lines on stdin")
		os.Exit(1)
	}
	doc := Doc{Env: env, Benchmarks: benches, Speedups: speedups(benches)}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}
