package bp

import "branchcorr/internal/trace"

// MaxRun is the largest loop/block run length the class predictors track;
// the paper assumes trip counts n, m < 256.
const MaxRun = 255

// loopState is the per-branch state of the loop predictor.
type loopState struct {
	dir     bool  // direction of the long runs (true = for-type loop)
	n       uint8 // last completed run length (the expected trip count)
	cur     uint8 // length of the current run in direction dir
	flips   uint8 // consecutive outcomes against dir while cur == 0
	haveDir bool  // dir has been initialized
	haveN   bool  // at least one full run has completed
}

// Loop is the loop-type class predictor of section 4.1.1. It captures
// "for-type" branches (taken n times, then not-taken once) and
// "while-type" branches (not-taken n times, then taken once): it predicts
// n outcomes in one direction followed by a single opposite outcome, where
// n is the length of the previous same-direction run. A direction bit
// distinguishes for- from while-type. Per-branch counts live in a perfect
// (unbounded) BTB so interference cannot affect classification, and
// n < 256 as in the paper.
type Loop struct {
	state map[trace.Addr]*loopState
}

// NewLoop returns a loop predictor with a perfect BTB.
func NewLoop() *Loop {
	return &Loop{state: make(map[trace.Addr]*loopState)}
}

// Name implements Predictor.
func (p *Loop) Name() string { return "loop" }

// Predict implements Predictor.
func (p *Loop) Predict(r trace.Record) bool {
	s, ok := p.state[r.PC]
	if !ok {
		return r.Backward
	}
	return s.predict(r.Backward)
}

// Update implements Predictor.
func (p *Loop) Update(r trace.Record) {
	s, ok := p.state[r.PC]
	if !ok {
		s = &loopState{}
		p.state[r.PC] = s
	}
	s.update(r.Taken)
}

// predict is the loop predictor's guess for the branch's next outcome;
// back is the branch's backward bit, which only a cold branch reads.
func (s *loopState) predict(back bool) bool {
	if !s.haveDir {
		// Cold branch: fall back to the static loop heuristic.
		return back
	}
	if !s.haveN {
		// A run is in progress but we have never seen it end; keep
		// predicting the run direction.
		return s.dir
	}
	if s.cur < s.n {
		return s.dir
	}
	return !s.dir
}

// update trains the state with the branch's resolved outcome.
func (s *loopState) update(taken bool) {
	if !s.haveDir {
		s.dir = taken
		s.haveDir = true
		s.cur = 1
		return
	}
	if taken == s.dir {
		if s.cur < MaxRun {
			s.cur++
		}
		s.flips = 0
		return
	}
	// Outcome opposite the run direction: the current run ended.
	if s.cur > 0 {
		s.n = s.cur
		s.haveN = true
		s.cur = 0
		s.flips = 0
		return
	}
	// Two opposite outcomes in a row mean the "loop direction" was
	// misidentified (e.g. a while-type branch first seen on its taken
	// exit); flip it after a second consecutive contradiction.
	s.flips++
	if s.flips >= 2 {
		s.dir = !s.dir
		s.haveN = false
		s.n = 0
		s.cur = s.flips
		if s.cur > MaxRun {
			s.cur = MaxRun
		}
		s.flips = 0
	}
}

// StateCount returns the number of branches tracked (the perfect-BTB
// population), for diagnostics.
func (p *Loop) StateCount() int { return len(p.state) }

var _ Predictor = (*Loop)(nil)

// blockState is the per-branch state of the block-pattern predictor.
type blockState struct {
	runLen  [2]uint8 // expected run length per direction (index: 0 NT, 1 T)
	haveRun [2]bool
	curDir  bool
	cur     uint8
	started bool
}

func dirIdx(taken bool) int {
	if taken {
		return 1
	}
	return 0
}

// Block is the block-pattern class predictor of section 4.1.2: branches
// taken n times, then not-taken m times, then taken n times, and so on.
// After the n'th consecutive taken outcome it predicts not-taken for the
// previous m, and symmetrically. n, m < 256; state is kept in a perfect
// BTB.
type Block struct {
	state map[trace.Addr]*blockState
}

// NewBlock returns a block-pattern predictor with a perfect BTB.
func NewBlock() *Block {
	return &Block{state: make(map[trace.Addr]*blockState)}
}

// Name implements Predictor.
func (p *Block) Name() string { return "block" }

// Predict implements Predictor.
func (p *Block) Predict(r trace.Record) bool {
	s, ok := p.state[r.PC]
	if !ok {
		return r.Backward
	}
	return s.predict(r.Backward)
}

// Update implements Predictor.
func (p *Block) Update(r trace.Record) {
	s, ok := p.state[r.PC]
	if !ok {
		s = &blockState{}
		p.state[r.PC] = s
	}
	s.update(r.Taken)
}

var _ Predictor = (*Block)(nil)

// predict continues the current run until it reaches its previously
// observed length, then switches direction; back is the branch's
// backward bit, which only a cold branch reads.
func (s *blockState) predict(back bool) bool {
	if !s.started {
		return back
	}
	i := dirIdx(s.curDir)
	if !s.haveRun[i] || s.cur < s.runLen[i] {
		return s.curDir
	}
	return !s.curDir
}

// update trains the state with the branch's resolved outcome.
func (s *blockState) update(taken bool) {
	if !s.started {
		s.started = true
		s.curDir = taken
		s.cur = 1
		return
	}
	if taken == s.curDir {
		if s.cur < MaxRun {
			s.cur++
		}
		return
	}
	// Run ended: record its length for that direction, start a new run.
	i := dirIdx(s.curDir)
	s.runLen[i] = s.cur
	s.haveRun[i] = true
	s.curDir = taken
	s.cur = 1
}
