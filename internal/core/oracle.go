package core

import (
	"fmt"

	"branchcorr/internal/obs"
	"branchcorr/internal/trace"
)

// OracleConfig controls the correlation oracle.
type OracleConfig struct {
	// WindowLen is n, the number of prior branches searched for
	// correlated instances (the paper sweeps 8–32; default 16).
	WindowLen int
	// TopK is the beam width: the number of singly-best candidates per
	// branch among which pairs are searched exhaustively and triples by
	// greedy extension of the best pair (default 16, max 32).
	TopK int
	// MaxCandidates caps the per-branch candidate statistics table; when
	// it overflows, the rarest candidates are pruned (default 2048).
	//
	// Pruning is a mid-stream heuristic with a deliberate, deterministic
	// bias: a candidate pruned at the 2×MaxCandidates watermark and later
	// re-observed restarts its joint counts from zero, so its profile
	// score reflects only the suffix of the trace after its last
	// eviction. Tracking tombstones for every evicted candidate would
	// reinstate exactly the memory pressure the cap exists to bound, so
	// the bias is kept, pinned by regression test (the kernel and
	// reference implementations reproduce it bit-identically), and
	// bounded in practice by the presence-ranked eviction order: a
	// candidate must be among the rarest half of 2×MaxCandidates refs to
	// be evicted at all.
	MaxCandidates int
	// Schemes restricts tagging to a subset of schemes; empty means both
	// (the paper's configuration). Used by the tag-scheme ablation.
	Schemes []Scheme
	// ScoreParallel is the number of workers for the oracle's
	// branch-major pass; 0 selects GOMAXPROCS. The static branches are
	// split into shards, and each shard profiles, ranks, resolves and
	// scores its branches one at a time, each branch's walks in their
	// serial order, writing into pre-assigned per-branch slots, so the
	// Selections, the state vectors and the counters are identical at
	// every parallelism level. At 1 the pass runs on the calling
	// goroutine.
	ScoreParallel int
	// Obs receives the oracle's counters (candidate occupancy, prune
	// events) and pass spans; nil selects obs.Default(). Counter values
	// depend only on the trace and config, never on ScoreParallel.
	Obs *obs.Registry
}

// maxTopK bounds the beam width (and the States scratch arrays).
const maxTopK = 32

// WithDefaults returns c with every zero knob set to its default:
// WindowLen 16, TopK 16, MaxCandidates 2048. It panics if TopK exceeds
// the beam limit of 32.
func (c OracleConfig) WithDefaults() OracleConfig {
	if c.WindowLen == 0 {
		c.WindowLen = 16
	}
	if c.TopK == 0 {
		c.TopK = 16
	}
	if c.TopK > maxTopK {
		panic(fmt.Sprintf("core: TopK %d exceeds limit %d", c.TopK, maxTopK))
	}
	if c.MaxCandidates == 0 {
		c.MaxCandidates = 2048
	}
	return c
}

func (c OracleConfig) schemeAllowed(s Scheme) bool {
	if len(c.Schemes) == 0 {
		return true
	}
	for _, want := range c.Schemes {
		if want == s {
			return true
		}
	}
	return false
}

// Candidates is the per-branch outcome of oracle pass 1: the TopK
// singly-best correlated refs, most predictive first.
type Candidates struct {
	Refs   []Ref
	Scores []uint32 // profile scores aligned with Refs
	Total  int      // dynamic executions of the branch
}

func refLess(a, b Ref) bool {
	if a.PC != b.PC {
		return a.PC < b.PC
	}
	if a.Scheme != b.Scheme {
		return a.Scheme < b.Scheme
	}
	return a.Tag < b.Tag
}

// Selections holds the oracle's chosen ref sets per history size.
type Selections struct {
	// BySize[k] assigns each branch its best k-ref selective history
	// (k in [1, MaxSelectiveRefs]); branches with fewer than k candidates
	// get all they have. Filled by StageFull and StageSelect runs.
	BySize [MaxSelectiveRefs + 1]Assignment

	// Candidates is the per-branch ranked beam from pass 1. Only
	// StageProfile runs fill it; the other stages leave it nil (a
	// StageSelect caller already holds the beam it passed in).
	Candidates map[trace.Addr]*Candidates
}

// subsetScore is the statically-filled-PHT correct count for one subset's
// joint distribution.
func subsetScore(flat []uint32) uint32 {
	score := uint32(0)
	for p := 0; p < len(flat)/2; p++ {
		score += max(flat[p*2], flat[p*2+1])
	}
	return score
}
