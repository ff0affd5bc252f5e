// Command bpsim runs branch predictors over a trace and reports overall
// and per-branch accuracy.
//
// Usage:
//
//	bpsim -trace gcc.btr -p gshare:16 -p pas:12,10,6
//	bpsim -workload go -n 500000 -p 'hybrid:(gshare:14),(pas:12,10,6),12' -per-branch
//	bpsim -workload gcc -metrics out.json   # engine metrics snapshot at exit
//	bpsim -specs     # list example predictor specs
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"sort"

	"branchcorr/internal/bp"
	"branchcorr/internal/obs"
	"branchcorr/internal/sim"
	"branchcorr/internal/trace"
	"branchcorr/internal/workloads"
)

// specList collects repeated -p flags.
type specList []string

func (s *specList) String() string { return fmt.Sprint(*s) }
func (s *specList) Set(v string) error {
	*s = append(*s, v)
	return nil
}

func main() {
	var specs specList
	var (
		tracePath = flag.String("trace", "", "BTR1 trace file to simulate")
		workload  = flag.String("workload", "", "generate this workload instead of reading a trace")
		n         = flag.Int("n", 500_000, "trace length when using -workload")
		perBranch = flag.Bool("per-branch", false, "print per-branch accuracies (sorted by misses)")
		stream    = flag.Bool("stream", false, "stream the trace file in bounded-memory column chunks (-trace only)")
		chunkLen  = flag.Int("chunk", 1<<16, "records per streamed chunk with -stream")
		top       = flag.Int("top", 20, "per-branch rows to print")
		listSpecs = flag.Bool("specs", false, "list example predictor specs and exit")
		metrics   = flag.String("metrics", "", "write the obs metrics snapshot (JSON) to this file at exit")
		debugAddr = flag.String("debug-addr", "", "serve expvar, pprof, and /metrics on this address (e.g. localhost:6060)")
	)
	flag.Var(&specs, "p", "predictor spec (repeatable; see -specs)")
	flag.Parse()
	if flag.NArg() > 0 {
		fatal(fmt.Errorf("unexpected argument %q (all options are flags)", flag.Arg(0)))
	}

	// Same observability arrangement as cmd/experiments: the process-wide
	// registry gets the wall clock (live runs only — library code never
	// reads time), so span histograms carry real durations while counters
	// stay deterministic.
	reg := obs.Default()
	reg.SetClock(obs.SystemClock)
	if *debugAddr != "" {
		ds, err := obs.ServeDebug(*debugAddr, reg)
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "bpsim: debug server on http://%s/ (expvar, pprof, /metrics)\n", ds.Addr())
		defer ds.Close()
	}
	if *metrics != "" {
		defer func() {
			if err := reg.WriteFile(*metrics); err != nil {
				fatal(err)
			}
		}()
	}

	if *listSpecs {
		for _, s := range bp.KnownSpecs() {
			fmt.Println(s)
		}
		return
	}
	if len(specs) == 0 {
		specs = specList{"gshare:16", "pas:12,10,6", "bimodal:14"}
	}

	var results []*sim.Result
	header := ""
	if *stream {
		if *tracePath == "" {
			fatal(fmt.Errorf("-stream requires -trace FILE"))
		}
		// Streaming mode cannot profile first, so ideal-static is
		// unavailable; predictors parse with an empty Env.
		predictors, err := bp.ParseAll(specs, bp.Env{})
		if err != nil {
			fatal(err)
		}
		f, err := os.Open(*tracePath)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		// The chunked block source keeps O(chunk) column memory resident
		// and lets predictor kernels engage exactly as in-memory runs do;
		// results are bit-identical to the non-streamed path.
		src, err := trace.ReadBlocks(f, *chunkLen)
		if err != nil {
			fatal(err)
		}
		var out *sim.Outcome
		out, err = sim.SimulateBlocks(src, predictors, sim.Options{Observer: reg})
		if err != nil {
			fatal(err)
		}
		results = out.Results
		header = fmt.Sprintf("trace %s (streamed): %d dynamic branches", src.Name(), results[0].Total)
	} else {
		tr, err := loadTrace(*tracePath, *workload, *n)
		if err != nil {
			fatal(err)
		}
		stats := trace.Summarize(tr)
		predictors, err := bp.ParseAll(specs, bp.Env{Stats: stats, Trace: tr})
		if err != nil {
			fatal(err)
		}
		results = sim.Simulate(tr, predictors, sim.Options{Observer: reg}).Results
		header = fmt.Sprintf("trace %s: %d dynamic branches, %d static sites",
			tr.Name(), stats.Dynamic, stats.Static)
	}
	w := bufio.NewWriter(os.Stdout)
	fmt.Fprintln(w, header)
	for _, r := range results {
		fmt.Fprintf(w, "  %-40s %8.4f%%  (%d mispredictions)\n",
			r.Predictor, 100*r.Accuracy(), r.Mispredictions())
	}
	if *perBranch {
		for _, r := range results {
			printPerBranch(w, r, *top)
		}
	}
	if err := w.Flush(); err != nil {
		fatal(err)
	}
}

func loadTrace(path, workload string, n int) (*trace.Trace, error) {
	switch {
	case path != "":
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return trace.Read(f)
	case workload != "":
		w, err := workloads.ByName(workload)
		if err != nil {
			return nil, err
		}
		return w.Generate(n), nil
	default:
		return nil, fmt.Errorf("need -trace FILE or -workload NAME")
	}
}

func printPerBranch(w *bufio.Writer, r *sim.Result, top int) {
	fmt.Fprintf(w, "per-branch, %s (top %d by mispredictions):\n", r.Predictor, top)
	type row struct {
		pc     trace.Addr
		acc    sim.BranchAcc
		misses int
	}
	rows := make([]row, 0, len(r.PerBranch))
	for pc, b := range r.PerBranch {
		rows = append(rows, row{pc, *b, b.Total - b.Correct})
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].misses != rows[j].misses {
			return rows[i].misses > rows[j].misses
		}
		return rows[i].pc < rows[j].pc
	})
	if top > len(rows) {
		top = len(rows)
	}
	for _, rw := range rows[:top] {
		fmt.Fprintf(w, "  0x%08x  %8d execs  %7.3f%%  %d misses\n",
			uint32(rw.pc), rw.acc.Total, 100*rw.acc.Accuracy(), rw.misses)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bpsim:", err)
	os.Exit(1)
}
