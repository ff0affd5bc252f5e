// Package experiments reproduces every table and figure of Evers, Patel,
// Chappell & Patt (ISCA 1998): one driver per exhibit, all running over
// the synthetic SPECint95 stand-in traces. Drivers share a Suite so that
// expensive intermediates (oracle selections, classifications, baseline
// predictor runs) are computed once per trace and reused across exhibits,
// exactly as the paper's own experiments share one simulation
// infrastructure.
package experiments

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"branchcorr/internal/bp"
	"branchcorr/internal/core"
	"branchcorr/internal/corpus"
	"branchcorr/internal/obs"
	"branchcorr/internal/sim"
	"branchcorr/internal/trace"
	"branchcorr/internal/workloads"
)

// Config parameterizes the whole experiment suite. Zero values select the
// paper-matching defaults documented in DESIGN.md §5.
type Config struct {
	// Length is the number of dynamic conditional branches per workload
	// trace (default 1,000,000).
	Length int
	// Workloads restricts the suite to a subset of benchmark names;
	// empty means all eight.
	Workloads []string
	// GshareBits is the gshare/IF-gshare global history length
	// (default 16, the paper's "16 branch history").
	GshareBits uint
	// PAs geometry (defaults 12-bit local history, 2^10-entry BHT, 2^6
	// PHTs).
	PAsHistBits, PAsBHTBits, PAsPHTBits uint
	// IFPAsBits is the interference-free PAs local history length
	// (default 16).
	IFPAsBits uint
	// Oracle configures the selective-history oracle (default window 16,
	// beam 16).
	Oracle core.OracleConfig
	// Fig5Windows are the history lengths swept by Figure 5 (default
	// 8..32 step 4).
	Fig5Windows []int
	// SweepGshareBits are the gshare history lengths swept by the fused
	// "sweeps" exhibit in one trace pass per workload (default 8..22
	// step 2).
	SweepGshareBits []uint
	// SweepShards is the config-shard worker budget every sweep-driven
	// exhibit passes to sim (Options.Parallel): above 1, each grid
	// splits into up to that many contiguous sub-grids running on
	// separate cores, composing byte-identically. 0 or 1 (the default)
	// keeps sweeps sequential — and the shard-scheduling counters out of
	// the default metrics snapshot; negative selects GOMAXPROCS.
	SweepShards int
	// Fig9Benchmarks are the benchmarks plotted in Figure 9 (default gcc
	// and perl, as in the paper).
	Fig9Benchmarks []string
	// Fig9Percentiles are the x-axis points of Figure 9 (default 0..100
	// step 5).
	Fig9Percentiles []float64
	// CorpusDir, when non-empty, names a content-addressed trace store
	// directory (internal/corpus): workload traces are loaded from it
	// when present and generated-then-stored otherwise, so repeat runs
	// skip generation entirely. Keys cover the workload name, Length,
	// and workloads.Revision; hits/misses surface as the corpus.*
	// counters on Obs. Empty (the default) bypasses the store, leaving
	// the default metrics snapshot untouched.
	CorpusDir string
	// ExtraSpecs adds the "extra" exhibit: a per-workload accuracy table
	// for these bp.Parse predictor specs (the -p flag of
	// cmd/experiments). Empty skips the exhibit entirely, so default
	// reports are unchanged.
	ExtraSpecs []string
	// Obs receives the suite's metrics — memoization hit rates, cell
	// spans via the runner observer, and (threaded through) the sim and
	// oracle counters. nil selects obs.Default(). Counter values depend
	// only on the configuration and requested exhibits, never on
	// parallelism.
	Obs *obs.Registry
}

func (c Config) withDefaults() Config {
	if c.Length == 0 {
		c.Length = 1_000_000
	}
	if len(c.Workloads) == 0 {
		c.Workloads = workloads.Names()
	}
	if c.GshareBits == 0 {
		c.GshareBits = 16
	}
	if c.PAsHistBits == 0 {
		c.PAsHistBits = 12
	}
	if c.PAsBHTBits == 0 {
		c.PAsBHTBits = 10
	}
	if c.PAsPHTBits == 0 {
		c.PAsPHTBits = 6
	}
	if c.IFPAsBits == 0 {
		c.IFPAsBits = 16
	}
	if c.Oracle.WindowLen == 0 {
		c.Oracle.WindowLen = 16
	}
	if len(c.Fig5Windows) == 0 {
		c.Fig5Windows = []int{8, 12, 16, 20, 24, 28, 32}
	}
	if len(c.SweepGshareBits) == 0 {
		c.SweepGshareBits = []uint{8, 10, 12, 14, 16, 18, 20, 22}
	}
	if len(c.Fig9Benchmarks) == 0 {
		c.Fig9Benchmarks = []string{"gcc", "perl"}
	}
	if len(c.Fig9Percentiles) == 0 {
		for p := 0.0; p <= 100; p += 5 {
			c.Fig9Percentiles = append(c.Fig9Percentiles, p)
		}
	}
	if c.Oracle.Obs == nil {
		c.Oracle.Obs = c.Obs
	}
	return c
}

// globalBundle holds the per-trace results every global-correlation
// exhibit shares: oracle-selected selective predictors of sizes 1–3, the
// 3-ref one again with outcomes hidden (presence mode), the
// interference-free gshare, and the real gshare.
type globalBundle struct {
	sel      [core.MaxSelectiveRefs + 1]*sim.Result
	presence *sim.Result
	ifg      *sim.Result
	g        *sim.Result
}

// fig5Bundle is what one trace's fused oracle-and-Figure-5 step keeps:
// Figure 5's accuracy row and, when the step covered the configured
// oracle window, the per-branch bundle.
type fig5Bundle struct {
	acc    []float64
	global *globalBundle
}

// baseBundle holds the baseline predictor runs shared by the section 4
// and 5 exhibits.
type baseBundle struct {
	static *sim.Result
	gshare *sim.Result
	pas    *sim.Result
}

// memo is a sync.Once-keyed memoization table: the first caller of a key
// computes the value while concurrent callers of the same key block and
// then share it, so parallel report cells never duplicate an expensive
// per-trace artifact (oracle passes, classifications, baseline runs).
type memo[T any] struct {
	mu sync.Mutex
	m  map[string]*memoEntry[T]
}

type memoEntry[T any] struct {
	once sync.Once
	val  T
}

// get returns the memoized value for key, computing it at most once.
func (m *memo[T]) get(key string, compute func() T) T {
	m.mu.Lock()
	if m.m == nil {
		m.m = make(map[string]*memoEntry[T])
	}
	e := m.m[key]
	if e == nil {
		e = &memoEntry[T]{}
		m.m[key] = e
	}
	m.mu.Unlock()
	e.once.Do(func() { e.val = compute() })
	return e.val
}

// Suite generates the workload traces once and computes shared
// intermediates lazily. Shared intermediates are memoized behind
// sync.Once keys, so exhibit methods (and the per-workload report cells
// BuildReport schedules) are safe to call concurrently.
type Suite struct {
	cfg     Config
	obs     *obs.Registry
	traces  []*trace.Trace
	sels    memo[*core.Selections]
	fig5    memo[*fig5Bundle]
	global  memo[*globalBundle]
	classes memo[*core.PAClassification]
	base    memo[*baseBundle]
	log     func(format string, args ...any)

	// foldFig5 is set while a report that requests Figure 5 and an
	// exhibit reading the per-branch bundle runs: the bundle's oracle
	// build, classification and sweep then fold into Figure 5's
	// per-trace step.
	foldFig5 atomic.Bool

	// oracleBuild runs the full oracle pipeline for one trace/config at
	// each listed window length (cfg.WindowLen is ignored), returning
	// the selections in window order; pc, when non-nil, is the trace's
	// path classes at a window no shorter than the largest listed. It
	// defaults to one shared core.OracleWindows pass over pc, or over
	// the memoized packed view; differential tests swap in a per-window
	// core.ReferenceBuildSelective loop to prove report bytes are
	// implementation-independent.
	oracleBuild func(tr *trace.Trace, pc *core.PathClasses, cfg core.OracleConfig, windows []int) []*core.Selections

	// simRun drives a batch of predictors over a trace. It defaults to
	// sim.Simulate (with the suite's registry), whose columnar fast path
	// kicks in per predictor with a batched kernel; differential tests
	// swap in a ForceReference call to prove report bytes are
	// engine-independent.
	simRun func(tr *trace.Trace, predictors ...bp.Predictor) []*sim.Result

	// simTimeline is simRun's counterpart for the training-time exhibit;
	// it defaults to sim.Simulate with a bucket size (same fast-path
	// dispatch), and the differential tests swap in a kernel-stripping
	// wrapper.
	simTimeline func(tr *trace.Trace, bucket int, predictors ...bp.Predictor) []*sim.Timeline

	// simSweep drives a whole config grid over a trace in one call,
	// with per-branch Results when perBranch is set. It defaults to
	// sim.SimulateSweep, whose fused path kicks in when the grid is a
	// bp.SweepKernel (a bp.BranchSweepKernel for per-branch calls);
	// differential tests swap in a ForceReference call to prove report
	// bytes are engine-independent.
	simSweep func(tr *trace.Trace, grid bp.SweepGrid, perBranch bool) *sim.SweepOutcome
}

// NewSuite generates traces for the configured workloads and returns a
// ready suite. logf, if non-nil, receives progress lines (trace
// generation and oracle passes are the slow steps); the suite serializes
// calls to it, so the callback itself need not be safe for concurrent
// use.
func NewSuite(cfg Config, logf func(format string, args ...any)) (*Suite, error) {
	cfg = cfg.withDefaults()
	if logf == nil {
		logf = func(string, ...any) {}
	} else {
		var mu sync.Mutex
		inner := logf
		logf = func(format string, args ...any) {
			mu.Lock()
			defer mu.Unlock()
			inner(format, args...)
		}
	}
	s := &Suite{cfg: cfg, obs: obs.Or(cfg.Obs), log: logf}
	s.oracleBuild = func(tr *trace.Trace, pc *core.PathClasses, ocfg core.OracleConfig, windows []int) []*core.Selections {
		if pc != nil {
			return core.OracleWindows(pc, windows, core.OracleOptions{OracleConfig: ocfg})
		}
		return core.OracleWindows(tr, windows, core.OracleOptions{OracleConfig: ocfg})
	}
	s.simRun = func(tr *trace.Trace, predictors ...bp.Predictor) []*sim.Result {
		return sim.Simulate(tr, predictors, sim.Options{Observer: cfg.Obs}).Results
	}
	s.simTimeline = func(tr *trace.Trace, bucket int, predictors ...bp.Predictor) []*sim.Timeline {
		return sim.Simulate(tr, predictors, sim.Options{BucketSize: bucket, Observer: cfg.Obs}).Timelines
	}
	s.simSweep = func(tr *trace.Trace, grid bp.SweepGrid, perBranch bool) *sim.SweepOutcome {
		return sim.SimulateSweep(tr, grid, sim.Options{Observer: cfg.Obs, Parallel: cfg.SweepShards, PerBranch: perBranch})
	}
	var store *corpus.Store
	if cfg.CorpusDir != "" {
		var err error
		if store, err = corpus.Open(cfg.CorpusDir, cfg.Obs); err != nil {
			return nil, err
		}
	}
	for _, name := range cfg.Workloads {
		w, err := workloads.ByName(name)
		if err != nil {
			return nil, err
		}
		if store != nil {
			key := corpus.Key(name, cfg.Length, workloads.Revision)
			tr, err := store.GetTrace(key, func() *trace.Trace {
				logf("generating %s (%d branches)", name, cfg.Length)
				return w.Generate(cfg.Length)
			})
			if err != nil {
				return nil, err
			}
			logf("corpus: %s ready (%d branches)", name, tr.Len())
			s.traces = append(s.traces, tr)
			continue
		}
		logf("generating %s (%d branches)", name, cfg.Length)
		s.traces = append(s.traces, w.Generate(cfg.Length))
	}
	return s, nil
}

// Config returns the (defaulted) configuration the suite runs with.
func (s *Suite) Config() Config { return s.cfg }

// Traces returns the generated traces in workload order.
func (s *Suite) Traces() []*trace.Trace { return s.traces }

// Names returns the benchmark names in suite order.
func (s *Suite) Names() []string {
	out := make([]string, len(s.traces))
	for i, tr := range s.traces {
		out[i] = tr.Name()
	}
	return out
}

func (s *Suite) newGshare() bp.Predictor { return bp.NewGshare(s.cfg.GshareBits) }
func (s *Suite) newIFGshare() bp.Predictor {
	return bp.NewIFGshare(s.cfg.GshareBits)
}
func (s *Suite) newPAs() bp.Predictor {
	return bp.NewPAs(s.cfg.PAsHistBits, s.cfg.PAsBHTBits, s.cfg.PAsPHTBits)
}

// selsFor computes (once) the oracle's selective-history ref choices for
// a trace at the configured window, for the per-branch bundle
// (globalFor) and Figure 5's step when the window's build is not folded
// into that step.
func (s *Suite) selsFor(tr *trace.Trace) *core.Selections {
	s.obs.Counter("suite.memo.sels.calls").Inc()
	return s.sels.get(tr.Name(), func() *core.Selections {
		s.obs.Counter("suite.memo.sels.misses").Inc()
		s.log("%s: oracle selection (window %d)", tr.Name(), s.cfg.Oracle.WindowLen)
		return s.oracleBuild(tr, nil, s.cfg.Oracle, []int{s.cfg.Oracle.WindowLen})[0]
	})
}

// fig5For runs (once) a trace's fused oracle-and-Figure-5 step: one
// path classification at the largest window, one oracle build over the
// Figure 5 windows on those classes, and one selective sweep over every
// window's 3-ref assignment on the same classes. While foldFig5 is set,
// the build covers the configured oracle window too, and the step runs
// the per-branch bundle's sweep (globalSweep) on the same classes; it
// keeps Figure 5's row and that bundle, and the classes and the
// selections become garbage when it returns. Otherwise the configured
// window's selections come from selsFor, whose build an earlier report
// on the suite may already have made.
func (s *Suite) fig5For(tr *trace.Trace) *fig5Bundle {
	s.obs.Counter("suite.memo.fig5.calls").Inc()
	return s.fig5.get(tr.Name(), func() *fig5Bundle {
		s.obs.Counter("suite.memo.fig5.misses").Inc()
		fold, own := s.foldFig5.Load(), s.cfg.Oracle.WindowLen
		windows := slices.Clone(s.cfg.Fig5Windows)
		if fold {
			windows = append(windows, own)
		} else {
			windows = slices.DeleteFunc(windows, func(n int) bool { return n == own })
		}
		slices.Sort(windows)
		windows = slices.Compact(windows)
		n := slices.Max(s.cfg.Fig5Windows)
		if fold {
			n = max(n, own)
		}
		pc := core.ClassifyPaths(tr, n, s.obs)
		var sels []*core.Selections
		if len(windows) > 0 {
			s.log("%s: oracle selection (windows %v)", tr.Name(), windows)
			sels = s.oracleBuild(tr, pc, s.cfg.Oracle, windows)
		}
		selsAt := func(n int) *core.Selections {
			if w, ok := slices.BinarySearch(windows, n); ok {
				return sels[w]
			}
			return s.selsFor(tr)
		}
		cfgs := make([]core.SelectiveConfig, len(s.cfg.Fig5Windows))
		for i, n := range s.cfg.Fig5Windows {
			cfgs[i] = core.SelectiveConfig{
				Name:   fmt.Sprintf("IF 3-branch selective(%d)", n),
				Window: n,
				Assign: selsAt(n).BySize[3],
			}
		}
		out := s.simSweep(tr, core.NewSelectiveSweepOver(pc, "fig5-selective-windows", cfgs), false)
		b := &fig5Bundle{acc: make([]float64, len(cfgs))}
		for c := range cfgs {
			b.acc[c] = out.Accuracy(c)
		}
		if fold {
			b.global = s.globalSweep(tr, selsAt(own), pc)
		}
		return b
	})
}

// globalFor computes (once) the per-branch results Figures 4 and 8,
// Table 2 and the in-path exhibit share, for a trace at the configured
// oracle window. A report that also requests Figure 5 takes them from
// Figure 5's per-trace step; otherwise the window's own oracle build
// (selsFor) and path classification feed globalSweep. Concurrent callers
// for the same trace block on one computation and share its bundle.
func (s *Suite) globalFor(tr *trace.Trace) *globalBundle {
	s.obs.Counter("suite.memo.global.calls").Inc()
	return s.global.get(tr.Name(), func() *globalBundle {
		s.obs.Counter("suite.memo.global.misses").Inc()
		if s.foldFig5.Load() {
			if b := s.fig5For(tr).global; b != nil {
				return b
			}
		}
		return s.globalSweep(tr, s.selsFor(tr), core.ClassifyPaths(tr, s.cfg.Oracle.WindowLen, s.obs))
	})
}

// globalSweep runs the per-branch bundle's six predictors as one
// per-branch fused sweep over the path classes pc: the three
// oracle-selected selective predictors and the presence-mode 3-ref one
// share one selective grid (one emitter walk per path signature), and
// the IF-gshare and gshare ride the same pass.
func (s *Suite) globalSweep(tr *trace.Trace, sels *core.Selections, pc *core.PathClasses) *globalBundle {
	n := s.cfg.Oracle.WindowLen
	cfgs := make([]core.SelectiveConfig, 0, core.MaxSelectiveRefs+1)
	for k := 1; k <= core.MaxSelectiveRefs; k++ {
		cfgs = append(cfgs, core.SelectiveConfig{
			Name:   fmt.Sprintf("IF %d-branch selective(%d)", k, n),
			Window: n,
			Assign: sels.BySize[k],
		})
	}
	cfgs = append(cfgs, core.SelectiveConfig{
		Name:   fmt.Sprintf("presence 3-branch selective(%d)", n),
		Window: n,
		Assign: sels.BySize[3],
		Mode:   core.ModePresence,
	})
	grid := bp.NewConcatSweep("global-correlation",
		core.NewSelectiveSweepOver(pc, "global-selective", cfgs),
		bp.NewIFGshareSweep([]uint{s.cfg.GshareBits}),
		bp.NewGshareSweep([]uint{s.cfg.GshareBits}),
	)
	s.log("%s: simulating selective + gshare predictors", tr.Name())
	rs := s.simSweep(tr, grid, true).Results
	b := &globalBundle{presence: rs[3], ifg: rs[4], g: rs[5]}
	b.sel[1], b.sel[2], b.sel[3] = rs[0], rs[1], rs[2]
	return b
}

// classFor computes (once) the per-address classification of a trace.
func (s *Suite) classFor(tr *trace.Trace) *core.PAClassification {
	s.obs.Counter("suite.memo.classes.calls").Inc()
	return s.classes.get(tr.Name(), func() *core.PAClassification {
		s.obs.Counter("suite.memo.classes.misses").Inc()
		s.log("%s: per-address classification", tr.Name())
		return core.ClassifyPerAddress(tr, core.ClassifyConfig{IFPAsHistoryBits: s.cfg.IFPAsBits, Obs: s.cfg.Obs})
	})
}

// baseFor computes (once) the ideal-static, gshare, and PAs baselines.
func (s *Suite) baseFor(tr *trace.Trace) *baseBundle {
	s.obs.Counter("suite.memo.base.calls").Inc()
	return s.base.get(tr.Name(), func() *baseBundle {
		s.obs.Counter("suite.memo.base.misses").Inc()
		s.log("%s: baseline predictors (static, gshare, PAs)", tr.Name())
		stats := trace.Summarize(tr)
		rs := s.simRun(tr, bp.NewIdealStatic(stats), s.newGshare(), s.newPAs())
		return &baseBundle{static: rs[0], gshare: rs[1], pas: rs[2]}
	})
}

// traceByName returns the suite trace with the given benchmark name.
func (s *Suite) traceByName(name string) *trace.Trace {
	for _, tr := range s.traces {
		if tr.Name() == name {
			return tr
		}
	}
	return nil
}

// pct formats a fraction as a percentage with two decimals.
func pct(v float64) string { return fmt.Sprintf("%.2f", 100*v) }
