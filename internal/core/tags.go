// Package core implements the paper's primary contribution: the machinery
// for analyzing why branches are predictable. It provides
//
//   - dynamic-instance tagging of branches in a bounded history window,
//     using both schemes of section 3.2 (occurrence-index tags and
//     backward-branch-count tags);
//   - the selective-history predictors of section 3.4, whose first-level
//     history holds the {taken, not-taken, not-in-path} outcomes of only
//     the 1–3 most important correlated branches;
//   - the oracle that chooses those most-important branches per static
//     branch by profiling the trace;
//   - the per-address predictability classification of section 4.1 and
//     the global/per-address/static categorizations of section 5.
package core

import (
	"fmt"

	"branchcorr/internal/trace"
)

// Scheme is a dynamic-instance tagging scheme from section 3.2. In tight
// loops several instances of the same static branch fit in the history
// window, so a correlated branch must be named by its address plus a tag
// identifying which dynamic instance is meant. The two schemes fail in
// complementary ways (occurrence tags cannot name "the instance from one
// iteration ago" when the branch doesn't execute every iteration;
// backward-count tags cannot name branches from before the current loop),
// so the paper — and this package — uses both, treating the same instance
// under different schemes as distinct correlation candidates.
type Scheme uint8

const (
	// Occurrence tags number instances of a static branch from the
	// current branch backwards: the most recent instance of address A is
	// A/occ0, the next older A/occ1, and so on.
	Occurrence Scheme = iota
	// BackwardCount tags an instance by how many taken backward branches
	// (loop-closing branches) executed between it and the current branch,
	// i.e. roughly "how many iterations ago".
	BackwardCount
)

// String implements fmt.Stringer.
func (s Scheme) String() string {
	switch s {
	case Occurrence:
		return "occ"
	case BackwardCount:
		return "back"
	default:
		return fmt.Sprintf("scheme(%d)", uint8(s))
	}
}

// MaxTag is the largest instance tag tracked under either scheme; window
// entries whose tag would exceed it are not nameable (and therefore count
// as "not in path" for any ref). 31 covers every instance in the window
// lengths the paper sweeps (n ≤ 32) — essential for tight loops, where
// the only perfectly correlated instance of a loop branch is a full
// period back (e.g. occurrence tag 8 for a trip-count-8 loop).
const MaxTag = 31

// Ref names one dynamic instance of a static branch relative to the
// current branch: the correlated-branch identifier of section 3.2.
type Ref struct {
	PC     trace.Addr
	Scheme Scheme
	Tag    uint8
}

// String renders a ref like "0x4000/occ0".
func (r Ref) String() string {
	return fmt.Sprintf("0x%x/%s%d", uint32(r.PC), r.Scheme, r.Tag)
}

// State is the three-valued outcome of a correlated branch in the history
// window (section 3.4): taken, not-taken, or not in the path of the last
// n branches.
type State uint8

// States, in the order used for pattern indexing.
const (
	StateTaken State = iota
	StateNotTaken
	StateAbsent
)

// NumStates is the radix of selective-history patterns.
const NumStates = 3

// String implements fmt.Stringer.
func (s State) String() string {
	switch s {
	case StateTaken:
		return "T"
	case StateNotTaken:
		return "N"
	case StateAbsent:
		return "-"
	default:
		return "?"
	}
}

// stateOf converts a direction to a State.
func stateOf(taken bool) State {
	if taken {
		return StateTaken
	}
	return StateNotTaken
}

// Window is a sliding window over the last n dynamic branches, supporting
// tag resolution under both schemes. It is the "path of n branches leading
// up to the current branch" of section 3.1.
type Window struct {
	recs []trace.Record // ring buffer
	head int            // index of the next slot to write (oldest entry)
	size int            // occupied entries, <= len(recs)

	// scratch space for Visit's per-address occurrence counts; windows
	// are small (n ≤ 32 in the paper), so a linear-scanned slice beats a
	// map and avoids a per-call allocation.
	seenPC  []trace.Addr
	seenCnt []uint8
	segPC   []trace.Addr // PCs emitted in the current backward segment
}

// NewWindow returns an empty window over the last n branches. n must be
// positive.
func NewWindow(n int) *Window {
	if n <= 0 {
		panic(fmt.Sprintf("core: window length %d must be positive", n))
	}
	return &Window{
		recs:    make([]trace.Record, n),
		seenPC:  make([]trace.Addr, 0, n),
		seenCnt: make([]uint8, 0, n),
	}
}

// Len returns the window capacity n.
func (w *Window) Len() int { return len(w.recs) }

// Size returns the number of branches currently held (< n only during
// warmup).
func (w *Window) Size() int { return w.size }

// Push records a committed branch, evicting the oldest if full. Callers
// push the current branch *after* resolving refs against the window, so
// the window always holds the n branches preceding the current one.
func (w *Window) Push(r trace.Record) {
	w.recs[w.head] = r
	w.head = (w.head + 1) % len(w.recs)
	if w.size < len(w.recs) {
		w.size++
	}
}

// at returns the record i positions back from the most recent (i=0 is the
// most recently pushed).
func (w *Window) at(i int) trace.Record {
	idx := w.head - 1 - i
	if idx < 0 {
		idx += len(w.recs)
	}
	return w.recs[idx]
}

// Visit walks the window from most recent to oldest, computing both tags
// for every entry, and calls fn for each nameable (tag ≤ MaxTag) tagged
// instance — up to two calls per entry, one per scheme, skipping any whose
// tag overflowed and any BackwardCount ref already emitted for a more
// recent instance (the most recent instance owns the ref, matching States
// resolution). Walking stops early if fn returns false.
//
// Tag conventions: an entry's occurrence tag is the count of more-recent
// window entries with the same address; its backward-count tag is the
// number of taken backward branches more recent than it (the entry itself
// excluded).
//
// Both tag schemes depend only on entries more recent than the one being
// tagged, so the first n steps of the walk ARE the walk a dedicated
// n-capacity window holding the same stream would produce — the prefix
// property that lets one walk at the largest window serve a whole
// window-length sweep (oracleEmitter).
func (w *Window) Visit(fn func(ref Ref, taken bool) bool) {
	w.seenPC = w.seenPC[:0]
	w.seenCnt = w.seenCnt[:0]
	w.segPC = w.segPC[:0]
	backs := uint8(0)
	for i := 0; i < w.size; i++ {
		r := w.at(i)
		var o uint8
		slot := -1
		for j, pc := range w.seenPC {
			if pc == r.PC {
				o = w.seenCnt[j]
				slot = j
				break
			}
		}
		if o <= MaxTag {
			if !fn(Ref{PC: r.PC, Scheme: Occurrence, Tag: o}, r.Taken) {
				return
			}
		}
		if slot >= 0 {
			if o < 255 {
				w.seenCnt[slot] = o + 1
			}
		} else {
			w.seenPC = append(w.seenPC, r.PC)
			w.seenCnt = append(w.seenCnt, 1)
		}
		if backs <= MaxTag {
			// Within one iteration segment (constant backs) the same PC
			// can appear more than once with an identical tag; emit only
			// the most recent instance, matching States resolution.
			dup := false
			for _, pc := range w.segPC {
				if pc == r.PC {
					dup = true
					break
				}
			}
			if !dup {
				w.segPC = append(w.segPC, r.PC)
				if !fn(Ref{PC: r.PC, Scheme: BackwardCount, Tag: backs}, r.Taken) {
					return
				}
			}
		}
		if r.Backward && r.Taken && backs < 255 {
			backs++
			w.segPC = w.segPC[:0]
		}
	}
}

// States resolves a set of refs against the window in a single walk,
// writing each ref's state into states (which must be at least as long as
// refs). Refs not found in the window are StateAbsent. If several window
// entries match the same ref (possible only under the BackwardCount
// scheme, when a branch executes more than once in one iteration), the
// most recent match wins.
func (w *Window) States(refs []Ref, states []State) {
	for i := range refs {
		states[i] = StateAbsent
	}
	remaining := len(refs)
	w.Visit(func(ref Ref, taken bool) bool {
		for i, want := range refs {
			if states[i] == StateAbsent && want == ref {
				states[i] = stateOf(taken)
				remaining--
				if remaining == 0 {
					return false
				}
			}
		}
		return true
	})
}
