// Command perfbench is the repository benchmark. It measures the two
// things users of this repository wait for: regenerating the paper's
// figures (experiments.NewSuite → BuildReport → Render, exactly what
// cmd/experiments does) and asking bpsimd for results over loopback HTTP
// (service.New(cfg).Handler() behind a listener, clients in-process).
//
// One run measures one workload and prints every metric by name, with
// its unit and sample count, then a "record" line (seed, held-out seed,
// env stamp, budgets) and, last, one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones, measured with no
// spans recorded. With -trace 1 the run instead calls each layer's public
// function itself, records a span around every call, and reports the
// per-layer breakdown (spans are written to .bench_build/spans/ at exit).
//
// Usage (from the root of a checkout; run.sh builds first):
//
//	bash perfbench/run.sh --workload figures-200k --seed 1 --seconds 10 --trace 0
//	bash perfbench/run.sh --compare parent.txt change.txt
//
// -compare reads two files, each the concatenated output of several runs
// (parent, change), and prints one row per workload × end-to-end metric
// with medians, quartiles, pairs won and a verdict under the bounds in
// BENCHMARK.json.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// heldOutSeed is the seed later performance claims must also hold on; it
// is never used while tuning a change.
const heldOutSeed = 7919

// metricDef is one reported metric: name, unit, and which direction is
// better. The end-to-end and per-layer tables must match BENCHMARK.json
// (TestBenchmarkJSONMatchesTables pins that).
type metricDef struct {
	Name, Unit, Better string
	// Bound is the share of the parent's median an end-to-end metric may
	// worsen by before a change counts as a regression.
	Bound float64
}

var endToEnd = []metricDef{
	{"wall_s", "s", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.15},
	{"throughput_rps", "1/s", "higher", 0.25},
	{"latency_p50_ms", "ms", "lower", 0.25},
	{"latency_p99_ms", "ms", "lower", 0.25},
}

// exhibitNames are the exhibits the per-layer table breaks report time
// into ("extra" needs user specs and never runs here).
var exhibitNames = []string{
	"table1", "fig4", "fig5", "table2", "fig6", "table3", "fig7", "fig8", "fig9",
	"inpath", "ceiling", "hybrids", "training", "sweeps",
}

func perLayer() []metricDef {
	defs := []metricDef{
		{Name: "workloads.generate_s", Unit: "s", Better: "lower"},
		{Name: "trace.pack_s", Unit: "s", Better: "lower"},
		{Name: "trace.pack_builds", Unit: "count", Better: "lower"},
		{Name: "corpus.put_s", Unit: "s", Better: "lower"},
		{Name: "corpus.misses", Unit: "count", Better: "lower"},
		{Name: "core.oracle_profile_s", Unit: "s", Better: "lower"},
		{Name: "core.oracle_select_s", Unit: "s", Better: "lower"},
		{Name: "core.oracle_records_per_s", Unit: "1/s", Better: "higher"},
		{Name: "core.oracle_builds", Unit: "count", Better: "lower"},
		{Name: "core.oracle_candidates", Unit: "count", Better: "lower"},
		{Name: "core.oracle_prune_events", Unit: "count", Better: "lower"},
		{Name: "core.classify_s", Unit: "s", Better: "lower"},
		{Name: "entropy.ceilings_s", Unit: "s", Better: "lower"},
		{Name: "sim.simulate_s", Unit: "s", Better: "lower"},
		{Name: "sim.records", Unit: "count", Better: "lower"},
		{Name: "sim.records_per_s", Unit: "1/s", Better: "higher"},
		{Name: "sim.fastpath_share", Unit: "ratio", Better: "higher"},
		{Name: "sim.sweep_s", Unit: "s", Better: "lower"},
		{Name: "sim.sweep_predictions", Unit: "count", Better: "lower"},
		{Name: "sim.sweep_fused_share", Unit: "ratio", Better: "higher"},
	}
	for _, e := range exhibitNames {
		defs = append(defs, metricDef{Name: "experiments.exhibit_s." + e, Unit: "s", Better: "lower"})
	}
	return append(defs,
		metricDef{Name: "experiments.render_s", Unit: "s", Better: "lower"},
		metricDef{Name: "experiments.memo_hit_ratio", Unit: "ratio", Better: "higher"},
		metricDef{Name: "api.decode_ms_p50", Unit: "ms", Better: "lower"},
		metricDef{Name: "api.marshal_ms_p50", Unit: "ms", Better: "lower"},
		metricDef{Name: "api.bytes_per_request", Unit: "bytes", Better: "lower"},
		metricDef{Name: "service.handler_ms_p50", Unit: "ms", Better: "lower"},
		metricDef{Name: "service.handler_ms_p99", Unit: "ms", Better: "lower"},
		metricDef{Name: "service.http_ms_p50", Unit: "ms", Better: "lower"},
		metricDef{Name: "service.engine_share", Unit: "ratio", Better: "lower"},
		metricDef{Name: "service.cache_hit_ratio", Unit: "ratio", Better: "higher"},
		metricDef{Name: "service.queue_max", Unit: "count", Better: "lower"},
		metricDef{Name: "bench.trace_overhead_frac", Unit: "ratio", Better: "lower"},
		metricDef{Name: "bench.unattributed_frac", Unit: "ratio", Better: "lower"},
	)
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the contract's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// record is everything a run knows about itself; compare mode reads it
// back. It is printed on the line before the result.
type record struct {
	Workload    string            `json:"workload"`
	Why         string            `json:"why"`
	Seed        int64             `json:"seed"`
	HeldOutSeed int64             `json:"held_out_seed"`
	Trace       bool              `json:"trace"`
	Seconds     float64           `json:"seconds"`
	Env         envStamp          `json:"env"`
	Budgets     budgets           `json:"budgets"`
	Samples     map[string]int    `json:"samples"`
	Metrics     map[string]metric `json:"metrics"`
	// Raw holds the end-to-end values before SpeedFactor scaled them to
	// reference speed (see calib.go).
	Raw         map[string]float64 `json:"raw,omitempty"`
	SpeedFactor float64            `json:"speed_factor,omitempty"`
	Correct     bool               `json:"correct"`
	Attempted   int64              `json:"attempted"`
	Failed      int64              `json:"failed"`
	Failures    []string           `json:"failures,omitempty"`
}

// outcome is what one workload run measured: per-metric values (with
// their sample counts) and the correctness tally.
type outcome struct {
	values    map[string]float64
	samples   map[string]int
	attempted int64
	failed    int64
	failures  []string
	// speed holds an untraced run's calibration samples.
	speed *speed
}

func newOutcome() *outcome {
	return &outcome{values: map[string]float64{}, samples: map[string]int{}}
}

func (o *outcome) set(name string, v float64, n int) {
	o.values[name] = v
	o.samples[name] = n
}

// fail counts one failed operation with its reason; only the first few
// reasons are kept for the record.
func (o *outcome) fail(format string, args ...any) {
	o.failed++
	if len(o.failures) < 20 {
		o.failures = append(o.failures, fmt.Sprintf(format, args...))
	}
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: "+workloadNames())
	seed := fs.Int64("seed", 1, "seed for the serve-* request streams (figure workloads are deterministic)")
	seconds := fs.Float64("seconds", 10, "length of the measured phase")
	traced := fs.Int("trace", 0, "1 runs the traced per-layer breakdown instead of the end-to-end measurement")
	compare := fs.Bool("compare", false, "compare two result files (parent, change) instead of running")
	bench := fs.String("benchmark", "BENCHMARK.json", "benchmark definition holding the bounds (compare mode)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	out := bufio.NewWriter(stdout)
	if *compare {
		if fs.NArg() != 2 {
			return errors.New("-compare needs two result files: parent change")
		}
		if err := compareFiles(out, *bench, fs.Arg(0), fs.Arg(1)); err != nil {
			return err
		}
		return out.Flush()
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	w, ok := workloadByName(*name)
	if !ok {
		return fmt.Errorf("unknown workload %q (have %s)", *name, workloadNames())
	}
	if *traced != 0 && *traced != 1 {
		return fmt.Errorf("-trace must be 0 or 1, not %d", *traced)
	}
	if *seconds <= 0 {
		return fmt.Errorf("-seconds must be positive, not %g", *seconds)
	}
	if _, err := os.Stat(filepath.Join("perfbench", "go.mod")); err != nil {
		return fmt.Errorf("run from the root of a checkout: %w", err)
	}
	work, err := os.MkdirTemp(".bench_build", "work-")
	if err != nil {
		return fmt.Errorf("scratch directory: %w", err)
	}
	defer os.RemoveAll(work)

	opts := runOpts{seed: *seed, seconds: *seconds, work: work, trace: *traced == 1}
	o, spans, err := w.run(w, opts)
	if err != nil {
		return err
	}
	if opts.trace {
		if err := writeSpans(filepath.Join(".bench_build", "spans"), w.Name, *seed, spans); err != nil {
			return err
		}
	}
	return report(out, w, opts, o)
}

// report prints the human-readable metric lines, the record line, and the
// contract's result line last.
func report(out *bufio.Writer, w workload, opts runOpts, o *outcome) error {
	defs := endToEnd
	if opts.trace {
		defs = perLayer()
	}
	metrics := make(map[string]metric, len(defs))
	samples := make(map[string]int, len(defs))
	var raw map[string]float64
	factor := 0.0
	if o.speed != nil {
		raw, factor = map[string]float64{}, o.speed.factor()
	}
	for _, d := range defs {
		v, ok := o.values[d.Name]
		if !ok {
			return fmt.Errorf("workload %s did not measure %s", w.Name, d.Name)
		}
		if raw != nil {
			raw[d.Name] = v
			switch d.Unit {
			case "s", "ms":
				v *= factor
			case "1/s":
				v /= factor
			}
		}
		metrics[d.Name] = metric{Value: v, Unit: d.Unit}
		samples[d.Name] = o.samples[d.Name]
		fmt.Fprintf(out, "%-40s %14.6g %-6s (n=%d)\n", d.Name, v, d.Unit, o.samples[d.Name])
	}
	fmt.Fprintf(out, "%-40s %14d\n%-40s %14d\n", "attempted", o.attempted, "failed", o.failed)
	for _, f := range o.failures {
		fmt.Fprintf(out, "failure: %s\n", f)
	}
	rec := record{
		Workload: w.Name, Why: w.Why, Seed: opts.seed, HeldOutSeed: heldOutSeed,
		Trace: opts.trace, Seconds: opts.seconds, Env: stampEnv(), Budgets: w.budgets(),
		Samples: samples, Metrics: metrics, Raw: raw, SpeedFactor: factor,
		Correct: o.failed == 0, Attempted: o.attempted, Failed: o.failed, Failures: o.failures,
	}
	rb, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	res := result{Correct: o.failed == 0, Attempted: o.attempted, Failed: o.failed, Metrics: metrics}
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "record %s\n%s\n", rb, b)
	return out.Flush()
}

// writeSpans dumps a traced run's spans, sorted by start, as JSON.
func writeSpans(dir, workload string, seed int64, spans []span) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	sort.SliceStable(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	b, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", workload, seed)), b, 0o644)
}
