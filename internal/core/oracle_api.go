package core

import (
	"fmt"
	"slices"

	"branchcorr/internal/obs"
	"branchcorr/internal/trace"
)

// This file is the oracle's public API, with two entry points: Oracle
// runs the full pipeline or one stage of it at one window length over an
// in-memory source, and OracleStates runs the full pipeline at several
// window lengths at once over a trace's path classes, keeping the state
// vectors its walks resolved. Both run one branch-major pass over the
// packed trace by path class (oracle_kernel.go). A trace that arrives as a
// stream (an upload, a corpus entry) is decoded whole before the oracle
// sees it.

// Source is any in-memory input the oracle can run over. Both
// *trace.Trace (whose Packed method returns its columnar view) and
// *trace.Packed (which returns itself) satisfy it, so callers holding
// either hand it to Oracle directly with no packing boilerplate. So does
// *PathClasses, whose path-signature classes the oracle then reads
// instead of classifying the trace itself.
type Source interface {
	Packed() *trace.Packed
}

var (
	_ Source = (*trace.Trace)(nil)
	_ Source = (*trace.Packed)(nil)
)

// OracleStage selects how much of the oracle pipeline runs.
type OracleStage int

const (
	// StageFull runs profile + select and returns ready-to-run
	// selective-history assignments (the default).
	StageFull OracleStage = iota
	// StageProfile runs pass 1 only and returns the ranked candidates in
	// Selections.Candidates, for callers that inspect or edit the beam
	// before selection.
	StageProfile
	// StageSelect runs passes 2+3 from OracleOptions.Candidates, for
	// callers re-scoring a beam produced by an earlier StageProfile run.
	StageSelect
)

// String names the stage for diagnostics.
func (s OracleStage) String() string {
	switch s {
	case StageFull:
		return "full"
	case StageProfile:
		return "profile"
	case StageSelect:
		return "select"
	}
	return fmt.Sprintf("OracleStage(%d)", int(s))
}

// OracleOptions configures one Oracle run. The zero value runs the full
// pipeline with OracleConfig defaults.
type OracleOptions struct {
	// OracleConfig carries the algorithmic knobs (WindowLen, TopK,
	// MaxCandidates, Schemes, ScoreParallel, Obs), embedded so callers
	// set them directly on the options literal.
	OracleConfig

	// Stage selects the pipeline slice to run; zero is StageFull.
	Stage OracleStage

	// Candidates is StageSelect's input beam: the per-branch ranked
	// candidates a prior StageProfile run produced with the same config
	// over the same records. Ignored by the other stages.
	Candidates map[trace.Addr]*Candidates
}

// Oracle runs the correlation oracle over an in-memory source at one
// window length in the stage-selected configuration and returns the
// Selections. StageFull and StageSelect fill Selections.BySize;
// StageProfile fills Selections.Candidates. The pass walks by
// path-signature class (pathmemo.go) on the columnar kernels; results are bit-identical to the reference oracle and at
// every ScoreParallel. A *PathClasses source whose window is at least
// WindowLen lends its classes; any other source is classified first
// (core.paths.classify.*).
func Oracle(src Source, opts OracleOptions) *Selections {
	cfg := opts.WithDefaults()
	windows := []int{cfg.WindowLen}
	checkWindows(windows)
	reg := obs.Or(cfg.Obs)
	if opts.Stage == StageFull {
		reg.Counter("core.oracle.builds").Inc()
		defer reg.StartSpan("core.oracle.build").End()
	}
	pt := src.Packed()
	pc, ok := src.(*PathClasses)
	if !ok || pc.n < cfg.WindowLen {
		pc = ClassifyPaths(pt, cfg.WindowLen, reg)
	}

	job := &oracleJob{pc: pc, cfg: cfg, windows: windows, built: []bool{true}, scored: []bool{true}}
	switch opts.Stage {
	case StageProfile:
		job.scored[0], job.profileOnly = false, true
		return &Selections{Candidates: job.run().cands[0]}
	case StageSelect:
		job.built[0] = false
		job.known = []map[trace.Addr]*Candidates{opts.Candidates}
	case StageFull:
	default:
		panic(fmt.Sprintf("core: unknown oracle stage %d", int(opts.Stage)))
	}
	return job.run().sels[0]
}

// OracleStates runs the full oracle over the path classes pc at every
// listed window length, and returns one Selections per entry of
// windows, in argument order (repeated lengths share one result), with
// what its walks resolved: the state vectors of every walk
// (BeamStates), which NewSelectiveSweepStates replays instead of
// walking the trace again. Each Selections is bit-identical to Oracle
// with that WindowLen; cfg.WindowLen is ignored. core.oracle.builds
// gains one per entry of windows, and the candidate and prune counters
// report what per-window Oracle calls would.
//
// All windows share each walk. Both tagging schemes resolve a tag only
// from more-recent entries, so a window-n walk is exactly the first n
// steps of the walk at the largest window: the profile buckets its
// joint counts by the smallest window that saw them (window n's
// statistics are prefix sums), and each walk resolves its branch's
// union of per-window beams once. A watermark prune makes the smaller
// windows inexact; if one fires in a branch's table, that branch's
// smaller windows are re-profiled one window at a time, and
// core.oracle.windows.fallbacks counts what one-window passes over the
// whole trace would.
//
// held lists selections the caller already holds, keyed by window
// length, at windows it does not ask to build: the collection resolves
// each one's refs (the union of its 1- to 3-ref assignments per branch)
// as an unscored column, so the states serve sweeps at that window too,
// without a profile or a score for it. With windows empty the call is
// the collection alone. pc's window must cover every built and held
// window, and no held window may also be built.
func OracleStates(pc *PathClasses, windows []int, held map[int]*Selections, cfg OracleConfig) ([]*Selections, *BeamStates) {
	cfg = cfg.WithDefaults()
	distinct := slices.Clone(windows)
	slices.Sort(distinct)
	distinct = slices.Compact(distinct)
	cols := slices.Clone(distinct)
	for n := range held {
		if _, built := slices.BinarySearch(distinct, n); built {
			panic(fmt.Sprintf("core: oracle states window %d is both built and held", n))
		}
		cols = append(cols, n)
	}
	slices.Sort(cols)
	checkWindows(cols)
	if n := cols[len(cols)-1]; pc.n < n {
		panic(fmt.Sprintf("core: oracle states over path classes at window %d need window %d", pc.n, n))
	}
	reg := obs.Or(cfg.Obs)
	if len(distinct) > 0 {
		reg.Counter("core.oracle.builds").Add(int64(len(windows)))
		defer reg.StartSpan("core.oracle.build").End()
	}
	job := &oracleJob{pc: pc, cfg: cfg, windows: cols, keep: true,
		built: make([]bool, len(cols)), known: make([]map[trace.Addr]*Candidates, len(cols)), scored: make([]bool, len(cols))}
	for w, n := range cols {
		if sel, ok := held[n]; ok {
			job.known[w] = heldBeams(n, sel.BySize[1:], func(a int) string {
				return fmt.Sprintf("held %d-ref selection", a+1)
			})
			continue
		}
		job.built[w], job.scored[w] = true, true
	}
	res := job.run()
	out := make([]*Selections, len(windows))
	for i, n := range windows {
		w, _ := slices.BinarySearch(cols, n)
		out[i] = res.sels[w]
	}
	return out, res.states
}

// heldStates is the held-only collection: the state vectors of every
// walk over pc against the given beams at each of windows (ascending),
// with no profile and no scoring. NewSelectiveSweep resolves its configs
// through it; OracleStates with no window to build runs the same job.
func heldStates(pc *PathClasses, windows []int, beams []map[trace.Addr]*Candidates, cfg OracleConfig) *BeamStates {
	job := &oracleJob{pc: pc, cfg: cfg.WithDefaults(), windows: windows, keep: true,
		built: make([]bool, len(windows)), known: beams, scored: make([]bool, len(windows))}
	return job.run().states
}

// heldBeams folds the assignments at one window into one beam per
// branch, as the collection resolves a held column: the distinct refs
// the assignments give the branch, in assignment order, then ref order.
// It backs OracleStates' held selections (their 1-, 2- and 3-ref
// assignments) and NewSelectiveSweep's configs. An assignment giving a
// branch more than MaxSelectiveRefs refs panics, and so does a union
// past a state vector's maxTopK slots; what(a) names assignment a in
// the message.
func heldBeams(window int, assigns []Assignment, what func(a int) string) map[trace.Addr]*Candidates {
	out := make(map[trace.Addr]*Candidates)
	for a, assign := range assigns {
		for pc, refs := range assign {
			if len(refs) > MaxSelectiveRefs {
				panic(fmt.Sprintf("core: %s: branch 0x%x assigned %d refs, max %d", what(a), uint32(pc), len(refs), MaxSelectiveRefs))
			}
			c := out[pc]
			if c == nil {
				c = &Candidates{}
				out[pc] = c
			}
			for _, r := range refs {
				if !slices.Contains(c.Refs, r) {
					c.Refs = append(c.Refs, r)
				}
			}
			if len(c.Refs) > maxTopK {
				panic(fmt.Sprintf("core: %s: branch 0x%x has %d distinct refs at window %d, past a state vector's %d slots",
					what(a), uint32(pc), len(c.Refs), window, maxTopK))
			}
		}
	}
	return out
}

// BeamStates is what one collection pass resolved (OracleStates), kept
// for the selective sweeps that replay the same trace
// (NewSelectiveSweepStates). The collection walks once per path class
// of its classes and once per record the classification declined, for
// every branch with a beam; each walk resolves the branch's beam at
// every window into one state vector per window (two bits per beam
// slot: absent, taken, not-taken). A sweep config whose refs all sit in
// their branch's beam at the config's window therefore reads its
// pattern-table index from those bits, with no walk of its own.
//
// The vectors are stored in walk order, with no index: the records'
// in position order, then the classes' in class order, each skipping
// the branches without a beam; a reader keeps a cursor into each. That
// costs 8 bytes per window per walk, and nothing else: 15.5 bytes per
// record (3.1 MB) on the 200k-record gcc trace at Figure 5's seven
// windows, and 56 bytes per record when every record is declined. The value is
// read-only once built, so concurrent sweeps may share it.
type BeamStates struct {
	pc      *PathClasses
	windows []int     // ascending: every built and held window
	beams   [][][]Ref // per dense ID: per window, the beam in slot order; nil without a beam at any window
	recs    []uint64  // [declined record × window], position order
	classes []uint64  // [walked class × window], class order
}

// VectorBytes is the memory the state vectors hold.
func (st *BeamStates) VectorBytes() int { return 8 * (len(st.recs) + len(st.classes)) }
