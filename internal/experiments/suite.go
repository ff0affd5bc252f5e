// Package experiments reproduces every table and figure of Evers, Patel,
// Chappell & Patt (ISCA 1998) over the synthetic SPECint95 stand-in
// traces. One exhibit table (exhibits.go) lists every exhibit by name;
// Suite.BuildReport schedules the requested ones as (exhibit × workload)
// cells over one Suite, so expensive intermediates (oracle selections,
// classifications, baseline predictor runs) are computed once per trace
// and reused across exhibits, exactly as the paper's own experiments
// share one simulation infrastructure.
package experiments

import (
	"fmt"
	"slices"
	"sync"

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

// oracleStep is what one trace's oracle step keeps: Figure 5's
// accuracy row and the per-branch bundle.
type oracleStep struct {
	fig5   []float64
	global *globalBundle
}

// baseBundle holds the baseline predictor results shared by the
// section 4 and 5 exhibits.
type baseBundle struct {
	static *sim.Result
	gshare *sim.Result
	pas    *sim.Result
}

// runConfig names a predictor configuration the run memo keeps.
type runConfig int

const (
	runGshare   runConfig = iota // gshare(GshareBits)
	runPAs                       // PAs(PAsHistBits, PAsBHTBits, PAsPHTBits)
	runIFGshare                  // IF-gshare(GshareBits)
)

// configRun is one memoized (trace, configuration) replay: its
// per-branch Result and its hit column (bit i = record i predicted
// correctly, 1 bit per record). Every exhibit that needs the
// configuration on the trace reads this run instead of replaying it:
// the baselines and the per-branch bundle read the Result, the
// hybrid's and the tournament's choosers and the training timelines
// read the column.
type configRun struct {
	res  *sim.Result
	hits []uint64
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
// intermediates lazily. Exhibits are computed only through BuildReport,
// which names them from the exhibit table; shared intermediates are
// memoized behind sync.Once keys, so the per-workload report cells it
// schedules run safely in parallel, and a later report on the same
// suite reuses what an earlier one computed.
type Suite struct {
	cfg     Config
	obs     *obs.Registry
	traces  []*trace.Trace
	step    memo[*oracleStep]
	classes memo[*core.PAClassification]
	base    memo[*baseBundle]
	runs    memo[*configRun]
	log     func(format string, args ...any)

	// oracleBuild runs the full oracle pipeline for one trace/config at
	// each listed window length (cfg.WindowLen is ignored) over pc, the
	// trace's path classes at a window no shorter than any listed,
	// returning the selections in window order and the state vectors of
	// every window. It defaults to one core.OracleStates call;
	// differential tests swap in a per-window
	// core.ReferenceBuildSelective loop to prove report bytes are
	// implementation-independent.
	oracleBuild func(tr *trace.Trace, pc *core.PathClasses, cfg core.OracleConfig, windows []int) ([]*core.Selections, *core.BeamStates)

	// simRun drives a batch of predictors over a trace, keeping each
	// one's hit column when hits is set. It defaults to sim.Simulate
	// (with the suite's registry), whose columnar fast path kicks in per
	// predictor with a batched kernel; differential tests swap in a
	// ForceReference call to prove report bytes are engine-independent.
	simRun func(tr *trace.Trace, hits bool, predictors ...bp.Predictor) *sim.Outcome

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
	s.oracleBuild = func(_ *trace.Trace, pc *core.PathClasses, ocfg core.OracleConfig, windows []int) ([]*core.Selections, *core.BeamStates) {
		return core.OracleStates(pc, windows, nil, ocfg)
	}
	s.simRun = func(tr *trace.Trace, hits bool, predictors ...bp.Predictor) *sim.Outcome {
		return sim.Simulate(tr, predictors, sim.Options{Hits: hits, Observer: cfg.Obs})
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

// stepFor runs (once) a trace's oracle step, which every exhibit
// reading the oracle shares: one path classification at the largest of
// the Figure 5 windows and the configured oracle window, one oracle
// call over all of those windows on those classes, and two sweeps that
// replay the call's state vectors: Figure 5's selective sweep over
// every Figure 5 window's 3-ref assignment, and the per-branch bundle's
// (globalSweep) at the oracle window. It keeps Figure 5's row and that
// bundle; the classes and the states become garbage when it returns.
// Concurrent callers for the same trace block on one computation and
// share its result.
func (s *Suite) stepFor(tr *trace.Trace) *oracleStep {
	s.obs.Counter("suite.memo.global.calls").Inc()
	return s.step.get(tr.Name(), func() *oracleStep {
		s.obs.Counter("suite.memo.global.misses").Inc()
		own := s.cfg.Oracle.WindowLen
		windows := append(slices.Clone(s.cfg.Fig5Windows), own)
		slices.Sort(windows)
		windows = slices.Compact(windows)
		pc := core.ClassifyPaths(tr, windows[len(windows)-1], s.obs)
		s.log("%s: oracle selection (windows %v)", tr.Name(), windows)
		built, st := s.oracleBuild(tr, pc, s.cfg.Oracle, windows)
		sels := make(map[int]*core.Selections, len(windows))
		for i, n := range windows {
			sels[n] = built[i]
		}
		cfgs := make([]core.SelectiveConfig, len(s.cfg.Fig5Windows))
		for i, n := range s.cfg.Fig5Windows {
			cfgs[i] = core.SelectiveConfig{
				Name:   fmt.Sprintf("IF 3-branch selective(%d)", n),
				Window: n,
				Assign: sels[n].BySize[3],
			}
		}
		out := s.simSweep(tr, core.NewSelectiveSweepStates(st, "fig5-selective-windows", cfgs), false)
		step := &oracleStep{fig5: make([]float64, len(cfgs)), global: s.globalSweep(tr, sels[own], st)}
		for c := range cfgs {
			step.fig5[c] = out.Accuracy(c)
		}
		return step
	})
}

// globalSweep builds the per-branch bundle: the three oracle-selected
// selective predictors and the presence-mode 3-ref one run as one
// per-branch selective sweep, which replays the state vectors st
// resolved for sels, and the IF-gshare and gshare come from the run
// memo.
func (s *Suite) globalSweep(tr *trace.Trace, sels *core.Selections, st *core.BeamStates) *globalBundle {
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
	s.log("%s: simulating selective predictors", tr.Name())
	rs := s.simSweep(tr, core.NewSelectiveSweepStates(st, "global-correlation", cfgs), true).Results
	b := &globalBundle{
		presence: rs[3],
		ifg:      s.runFor(tr, runIFGshare).res,
		g:        s.runFor(tr, runGshare).res,
	}
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

// baseFor assembles (once) the ideal-static, gshare, and PAs baselines:
// the gshare and PAs results from the run memo, the ideal-static one in
// closed form (idealStatic).
func (s *Suite) baseFor(tr *trace.Trace) *baseBundle {
	s.obs.Counter("suite.memo.base.calls").Inc()
	return s.base.get(tr.Name(), func() *baseBundle {
		s.obs.Counter("suite.memo.base.misses").Inc()
		return &baseBundle{
			static: idealStatic(tr),
			gshare: s.runFor(tr, runGshare).res,
			pas:    s.runFor(tr, runPAs).res,
		}
	})
}

// idealStatic is the ideal static predictor's Result on tr in closed
// form, O(static sites): each site scores bp.IdealStaticCorrect of the
// packed view's per-site tallies, exactly what a replay of
// bp.NewIdealStatic counts.
func idealStatic(tr *trace.Trace) *sim.Result {
	pt := tr.Packed()
	counts, taken := pt.Counts(), pt.TakenCounts()
	correct := make([]int32, len(counts))
	for id, n := range counts {
		correct[id] = int32(bp.IdealStaticCorrect(int(taken[id]), int(n)))
	}
	return sim.BranchResult((&bp.IdealStatic{}).Name(), tr.Name(), pt.Addrs(), correct, counts)
}

// runFor replays (once per trace) configuration c with its hit column
// kept. Concurrent callers for the same trace and configuration block
// on one replay and share it.
func (s *Suite) runFor(tr *trace.Trace, c runConfig) *configRun {
	s.obs.Counter("suite.memo.run.calls").Inc()
	return s.runs.get(fmt.Sprintf("%s/%d", tr.Name(), c), func() *configRun {
		s.obs.Counter("suite.memo.run.misses").Inc()
		p := s.newConfig(c)
		s.log("%s: baseline %s", tr.Name(), p.Name())
		out := s.simRun(tr, true, p)
		return &configRun{res: out.Results[0], hits: out.Hits[0]}
	})
}

// newConfig builds a fresh predictor of configuration c.
func (s *Suite) newConfig(c runConfig) bp.Predictor {
	switch c {
	case runGshare:
		return s.newGshare()
	case runPAs:
		return s.newPAs()
	default:
		return s.newIFGshare()
	}
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
