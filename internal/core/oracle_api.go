package core

import (
	"fmt"
	"slices"

	"branchcorr/internal/obs"
	"branchcorr/internal/trace"
)

// This file is the oracle's public API: Oracle runs the full pipeline or
// one stage of it over an in-memory trace, and OracleWindows runs the
// full stage over several window lengths at once. Both share one stage
// switch, runOracle, whose passes each walk the whole packed trace once
// (oracle_kernel.go). A trace that arrives as a stream (an upload, a
// corpus entry) is decoded whole before the oracle sees it.

// Source is any in-memory input the oracle can run over. Both
// *trace.Trace (whose Packed method memoizes the columnar view) and
// *trace.Packed (which returns itself) satisfy it, so callers holding
// either hand it to Oracle directly with no packing boilerplate.
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

// OracleOptions configures one Oracle or OracleWindows run. The zero
// value runs the full pipeline with OracleConfig defaults.
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

// Oracle runs the correlation oracle over an in-memory source in the
// stage-selected configuration and returns the Selections. StageFull
// and StageSelect fill Selections.BySize; StageProfile fills
// Selections.Candidates. The work runs on the columnar kernels; results
// are bit-identical to the reference oracle and at every ScoreParallel.
func Oracle(src Source, opts OracleOptions) *Selections {
	return runOracle(src.Packed(), []int{opts.WithDefaults().WindowLen}, opts)[0]
}

// OracleWindows runs the full oracle (StageFull) at every listed window
// length and returns one Selections per entry of windows, in argument
// order; each is bit-identical to Oracle with that WindowLen, and
// repeated lengths share one result. opts.WindowLen is ignored.
//
// All windows share the two trace walks. Both tagging schemes resolve a
// tag only from more-recent entries, so a window-n walk is exactly the
// first n steps of the walk at the largest window: the profile pass
// buckets its joint counts by the smallest window that saw them (window
// n's statistics are prefix sums), and the collection pass resolves
// each branch's union of per-window beams once per record. A watermark
// prune makes the smaller windows inexact; if one fires, those windows
// are re-profiled with one-window passes, counted in
// core.oracle.windows.fallbacks. core.oracle.builds gains one per
// window delivered, and the candidate and prune counters report what
// per-window Oracle calls would.
func OracleWindows(src Source, windows []int, opts OracleOptions) []*Selections {
	if opts.Stage != StageFull {
		panic(fmt.Sprintf("core: OracleWindows runs stage %v only, got %v", StageFull, opts.Stage))
	}
	if len(windows) == 0 {
		return nil
	}
	return runOracle(src.Packed(), windows, opts)
}

// runOracle is the oracle's one stage switch: it runs opts.Stage over
// the packed trace at every listed window length and returns one
// Selections per entry of windows, in argument order (repeats share one
// result). Every stage first classifies the trace by path signature at
// the largest window (pathmemo.go); the profile and collection passes
// share those classes. StageSelect scores opts.Candidates at every
// window.
func runOracle(pt *trace.Packed, windows []int, opts OracleOptions) []*Selections {
	cfg := opts.WithDefaults()
	distinct := slices.Clone(windows)
	slices.Sort(distinct)
	distinct = slices.Compact(distinct)
	checkWindows(distinct)
	reg := obs.Or(cfg.Obs)
	if opts.Stage == StageFull {
		reg.Counter("core.oracle.builds").Add(int64(len(windows)))
		defer reg.StartSpan("core.oracle.build").End()
	}
	memo := newPackedMemo(pt, distinct[len(distinct)-1])

	var sels []*Selections
	switch opts.Stage {
	case StageProfile:
		for _, c := range profileWindows(pt, memo, distinct, cfg) {
			sels = append(sels, &Selections{Candidates: c})
		}
	case StageSelect:
		cands := make([]map[trace.Addr]*Candidates, len(distinct))
		for w := range cands {
			cands[w] = opts.Candidates
		}
		sels = selectWindows(pt, memo, distinct, cands, cfg)
	case StageFull:
		sels = selectWindows(pt, memo, distinct, profileWindows(pt, memo, distinct, cfg), cfg)
	default:
		panic(fmt.Sprintf("core: unknown oracle stage %d", int(opts.Stage)))
	}
	out := make([]*Selections, len(windows))
	for i, n := range windows {
		w, _ := slices.BinarySearch(distinct, n)
		out[i] = sels[w]
	}
	return out
}
