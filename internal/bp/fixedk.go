package bp

import (
	"fmt"
	"math/bits"

	"branchcorr/internal/trace"
)

// MaxFixedPeriod is the longest fixed-length pattern period the study
// considers, matching the paper's 32 predictor variants (k in [1,32]).
const MaxFixedPeriod = 32

// outcomeRing is a per-branch ring buffer of the most recent outcomes.
type outcomeRing struct {
	bits uint64 // newest outcome in bit 0
	n    int    // outcomes recorded, saturating at 64
}

func (o *outcomeRing) push(taken bool) {
	o.bits <<= 1
	if taken {
		o.bits |= 1
	}
	if o.n < 64 {
		o.n++
	}
}

// kAgo returns the outcome k occurrences ago (k >= 1) and whether that
// much history exists.
func (o *outcomeRing) kAgo(k int) (bool, bool) {
	if k < 1 || k > o.n || k > 64 {
		return false, false
	}
	return o.bits>>(k-1)&1 == 1, true
}

// FixedK is a fixed-length-pattern class predictor (section 4.1.2): a
// branch repeating any pattern of period k has the same outcome it had k
// occurrences ago, so the predictor simply replays the outcome from k ago.
// Until k outcomes of a branch have been seen it predicts the branch's
// most recent outcome (or taken if none). State is per-branch and
// unbounded (perfect BTB).
type FixedK struct {
	k     int
	rings map[trace.Addr]*outcomeRing
}

// NewFixedK returns the period-k fixed-pattern predictor, k in
// [1, MaxFixedPeriod].
func NewFixedK(k int) *FixedK {
	if k < 1 || k > MaxFixedPeriod {
		panic(fmt.Sprintf("bp: fixed pattern period %d out of range [1,%d]", k, MaxFixedPeriod))
	}
	return &FixedK{k: k, rings: make(map[trace.Addr]*outcomeRing)}
}

// Name implements Predictor.
func (p *FixedK) Name() string { return fmt.Sprintf("fixed-k(%d)", p.k) }

// Predict implements Predictor.
func (p *FixedK) Predict(r trace.Record) bool {
	ring, ok := p.rings[r.PC]
	if !ok || ring.n == 0 {
		return true
	}
	if out, ok := ring.kAgo(p.k); ok {
		return out
	}
	last, _ := ring.kAgo(1)
	return last
}

// Update implements Predictor.
func (p *FixedK) Update(r trace.Record) {
	ring, ok := p.rings[r.PC]
	if !ok {
		ring = &outcomeRing{}
		p.rings[r.PC] = ring
	}
	ring.push(r.Taken)
}

var _ Predictor = (*FixedK)(nil)

// FixedKCounts returns the correct predictions of every fixed-k
// predictor (k = 1..MaxFixedPeriod, at index k-1) over one branch's
// outcome stream: bit i of words is the branch's i'th outcome b_i, m
// outcomes in all, zero past the last. It is FixedK's per-branch count
// in closed form, with no per-record state:
//
//	correct_k = [b_0 = 1] + #{1 <= i < min(k, m) : b_i = b_{i-1}}
//	                      + #{k <= i < m : b_i = b_{i-k}}
//
// The first two terms are the warm-up (taken, then the last outcome);
// the third is a shifted-XNOR popcount over the stream, O(m/64) words
// per period.
func FixedKCounts(words []uint64, m int) (c [MaxFixedPeriod]int) {
	if m == 0 {
		return c
	}
	nw := (m + 63) / 64
	words = words[:nw]
	last := ^uint64(0) // the outcome bits of the final word
	if r := uint(m) & 63; r != 0 {
		last = 1<<r - 1
	}
	var prev uint64
	for w, cur := range words {
		valid := ^uint64(0)
		if w == nw-1 {
			valid = last
		}
		for k := uint(1); k <= MaxFixedPeriod; k++ {
			same := ^(cur ^ (cur<<k | prev>>(64-k))) & valid
			if w == 0 {
				same &^= 1<<k - 1 // i < k has no outcome k ago
			}
			c[k-1] += bits.OnesCount64(same)
		}
		prev = cur
	}
	w0 := words[0]
	first := int(w0 & 1)
	repeats := ^(w0 ^ w0<<1) // bit i >= 1: b_i = b_{i-1}
	for k := 1; k <= MaxFixedPeriod; k++ {
		warm := uint(min(k, m))
		c[k-1] += first + bits.OnesCount64(repeats&(1<<warm-1)&^1)
	}
	return c
}

// BestFixedK returns the best fixed-k predictor for one branch's outcome
// stream (as FixedKCounts takes it): the highest correct count over all
// periods, ties keeping the lowest k. The paper uses the best of the 32
// variants per branch as the fixed-length pattern prediction accuracy.
func BestFixedK(words []uint64, m int) BestFixed {
	best := BestFixed{Correct: -1, Total: m}
	for k, c := range FixedKCounts(words, m) {
		if c > best.Correct {
			best.Correct, best.K = c, k+1
		}
	}
	return best
}

// BestFixed is one branch's best fixed-length-pattern predictor.
type BestFixed struct {
	Correct int // correct predictions of the best period
	K       int // the best period (1-based)
	Total   int // dynamic executions of the branch
}
