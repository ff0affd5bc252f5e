package core

import (
	"fmt"
	"slices"

	"branchcorr/internal/obs"
	"branchcorr/internal/trace"
)

// This file is the oracle's public API, mirroring sim.Simulate: two
// options-based calls — Oracle for in-memory inputs and OracleBlocks for
// bounded-memory streams — each running the full pipeline or one stage
// of it. OracleWindows is Oracle's full stage over several window
// lengths at once; Oracle's full stage is its one-window call.

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

// OracleOptions configures one Oracle or OracleBlocks run. The zero
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

	// Addrs is OracleBlocks' StageSelect intern table: the complete
	// first-appearance address table of the stream (as produced by the
	// profile pass over the same records), needed to build beam matchers
	// before the stream replays. In-memory Oracle ignores it — the
	// packed view carries its own table.
	Addrs []trace.Addr
}

// Oracle runs the correlation oracle over an in-memory source in the
// stage-selected configuration and returns the Selections. StageFull
// and StageSelect fill Selections.BySize; StageProfile fills
// Selections.Candidates. The work runs on the columnar kernels; results
// are bit-identical at every ScoreParallel and identical to the
// streaming path (OracleBlocks) on the same records.
func Oracle(src Source, opts OracleOptions) *Selections {
	pt := src.Packed()
	switch opts.Stage {
	case StageProfile:
		return &Selections{Candidates: profilePacked(pt, opts.OracleConfig)}
	case StageSelect:
		return selectPacked(pt, opts.Candidates, opts.OracleConfig)
	case StageFull:
		return OracleWindows(pt, []int{opts.OracleConfig.withDefaults().WindowLen}, opts)[0]
	}
	panic(fmt.Sprintf("core: unknown oracle stage %d", int(opts.Stage)))
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
	cfg := opts.OracleConfig.withDefaults()
	distinct := slices.Clone(windows)
	slices.Sort(distinct)
	distinct = slices.Compact(distinct)
	checkWindows(distinct)

	reg := obs.Or(cfg.Obs)
	reg.Counter("core.oracle.builds").Add(int64(len(windows)))
	defer reg.StartSpan("core.oracle.build").End()
	pt := src.Packed()
	cands, memo := profileWindows(pt, distinct, cfg)
	sels := selectWindows(pt, distinct, cands, cfg, memo)
	out := make([]*Selections, len(windows))
	for i, n := range windows {
		w, _ := slices.BinarySearch(distinct, n)
		out[i] = sels[w]
	}
	return out
}

// OracleBlocks is Oracle over a streaming trace.BlockSource, in memory
// bounded by the chunk size rather than the trace length, bit-identical
// to Oracle on the equivalent in-memory trace. open must yield an
// identical record stream on every call (e.g. re-open the same corpus
// entry or trace file): StageFull opens twice — once per pass — and
// relies on the first pass's intern table matching the re-opened
// stream's dense IDs; the other stages open once.
func OracleBlocks(open func() (trace.BlockSource, error), opts OracleOptions) (*Selections, error) {
	cfg := opts.OracleConfig.withDefaults()
	switch opts.Stage {
	case StageProfile:
		src, err := open()
		if err != nil {
			return nil, err
		}
		cands, _, err := profilePass(src, cfg)
		if err != nil {
			return nil, err
		}
		return &Selections{Candidates: cands}, nil
	case StageSelect:
		src, err := open()
		if err != nil {
			return nil, err
		}
		return selectBlocks(src, opts.Addrs, opts.Candidates, cfg)
	case StageFull:
		reg := obs.Or(cfg.Obs)
		reg.Counter("core.oracle.builds").Inc()
		defer reg.StartSpan("core.oracle.build").End()

		src, err := open()
		if err != nil {
			return nil, err
		}
		cands, addrs, err := profilePass(src, cfg)
		if err != nil {
			return nil, err
		}
		src, err = open()
		if err != nil {
			return nil, err
		}
		return selectBlocks(src, addrs, cands, cfg)
	}
	panic(fmt.Sprintf("core: unknown oracle stage %d", int(opts.Stage)))
}
