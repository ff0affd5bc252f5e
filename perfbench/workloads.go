package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"syscall"

	"branchcorr/internal/obs"
)

// runOpts are the command-line settings every workload run receives.
type runOpts struct {
	seed    int64
	seconds float64
	work    string // scratch directory inside the checkout, removed at exit
	trace   bool
}

// workload is one benchmark input set. Sizes live here so the tests can
// run every workload at a tiny size through the same code.
type workload struct {
	Name, Why string
	// run measures the workload; the spans are non-nil only for traced
	// runs.
	run func(w workload, opts runOpts) (*outcome, []span, error)

	// Figure workloads.
	N        int
	Exhibits []string // nil means the full report
	Digest   string   // SHA-256 of the rendered report
	Builds   int64    // oracle builds the report must make

	// Serve workloads.
	Warm    bool
	Clients int
	// PassLen is the number of requests one pass replays on a fresh
	// server; a run repeats passes until its measured time is used up.
	// At least 1,000, so each pass's p99 has ten samples beyond it.
	PassLen int
	// MinPasses is the least number of passes a run makes, so set-up
	// always has several samples.
	MinPasses int
	// TracedLen bounds the requests the traced run sends through the
	// handler one at a time.
	TracedLen int
}

// kernelExhibits is every exhibit that never reaches the oracle: fig8,
// inpath, table2 and fig4 all go through the selective-history bundle.
var kernelExhibits = []string{"table1", "fig6", "table3", "fig7", "fig9", "ceiling", "hybrids", "training", "sweeps"}

// serveTraces are the workload traces the serve streams name.
var serveTraces = []string{"gcc", "go", "compress", "xlisp"}

var workloadTable = []workload{
	{
		Name: "figures-200k",
		Why:  "full report at n=200k on one worker; the oracle does half the work (56 builds); deterministic, so the seed is unused",
		run:  runFigures, N: 200_000, Builds: 56,
		Digest: "aa4e8c81701f9c5d6c6d352cdfe7f03e2ef3ea77e9627c95d89854a2d62d0e14",
	},
	{
		Name: "figures-kernels-1m",
		Why:  "oracle-free exhibits at n=1M: sim kernels, classification, entropy ceilings, fused sweep; deterministic, so the seed is unused",
		run:  runFigures, N: 1_000_000, Exhibits: kernelExhibits, Builds: 0,
		Digest: "28b29346fe7e2cb5ce7bc28bfe154502aa8f60b95e4508099d7121fcc4def796",
	},
	{
		Name: "serve-cold",
		Why:  "2 closed-loop bpsimd clients replay a seeded stream of distinct simulate/sweep/classify/oracle requests; every request misses the cache",
		run:  runServe, N: 100_000, Clients: 2, PassLen: 1000, MinPasses: 3, TracedLen: 600,
	},
	{
		Name: "serve-warm",
		Why:  "2 closed-loop bpsimd clients replay a primed set in seeded order and spelling; every request hits the cache, so engines stay idle",
		run:  runServe, N: 100_000, Warm: true, Clients: 2, PassLen: 25_000, MinPasses: 3, TracedLen: 5_000,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloadTable {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

func workloadNames() string {
	names := make([]string, len(workloadTable))
	for i, w := range workloadTable {
		names[i] = w.Name
	}
	return strings.Join(names, ",")
}

// budgets are the worker budgets and sizes a run used.
type budgets struct {
	N              int      `json:"n"`
	Exhibits       []string `json:"exhibits,omitempty"`
	RunnerParallel int      `json:"runner_parallel,omitempty"`
	SweepShards    int      `json:"sweep_shards,omitempty"`
	Workers        int      `json:"workers,omitempty"`
	SimParallel    int      `json:"sim_parallel,omitempty"`
	Clients        int      `json:"clients,omitempty"`
	PassLen        int      `json:"pass_len,omitempty"`
}

func (w workload) budgets() budgets {
	if w.Clients > 0 {
		// Default service.Config: 4 admission workers, 1 engine worker per
		// request.
		return budgets{N: w.N, Workers: 4, SimParallel: 1, Clients: w.Clients, PassLen: w.PassLen}
	}
	return budgets{N: w.N, Exhibits: w.Exhibits, RunnerParallel: 1, SweepShards: 1}
}

// envStamp records where a result was measured.
type envStamp struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
}

func stampEnv() envStamp {
	return envStamp{
		CPU:        cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     commit(),
	}
}

// cpuModel reads the first "model name" line of /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit is the VCS revision the Go toolchain stamped into the binary;
// a build outside a git checkout has none.
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if dirty {
		rev += "+dirty"
	}
	return rev
}

// peakRSSMB is the process's peak resident set so far.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

// now is the benchmark's only clock: the repository's sanctioned
// monotonic clock, in seconds.
func now() float64 { return float64(obs.SystemClock()) / 1e9 }
