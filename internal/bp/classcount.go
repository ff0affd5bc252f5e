package bp

import (
	"fmt"
	"math/bits"
)

// ClassCounts is one branch's outcome profile under the section 4.1
// class predictors. Each count is exactly what a whole-trace run of the
// predictor counts for the branch, since each keeps only per-branch
// state (a perfect BTB) and so sees only the branch's own outcomes.
type ClassCounts struct {
	Taken int // taken outcomes
	// Correct holds the correct predictions of the ideal static (the
	// majority direction, ties taken), loop, block and IF-PAs
	// predictors, in ClassScorer.Names order.
	Correct [4]int
	Fixed   BestFixed // the best of the MaxFixedPeriod FixedK predictors
}

// ClassScorer computes ClassCounts one branch at a time from the
// branch's own outcome stream, reusing one IF-PAs table across branches:
// a dense array of 2^k counters indexed by the bare history, or the
// hash. A branch gets the dense array, cleared for it, while the bytes
// cleared so far, this clear included, fit four per record scored so
// far (the ifStore budget: the trace's own 4-byte entry column), so
// neither the array nor all its clears together outgrow the input.
type ClassScorer struct {
	table    ifTable
	dense    []uint8
	records  uint64 // outcomes scored, the current branch's included
	cleared  uint64 // dense bytes cleared
	histMask uint32
	histBits uint
}

// NewClassScorer returns a scorer whose IF-PAs keeps historyBits of
// local history, within NewIFPAs's [1,32] range.
func NewClassScorer(historyBits uint) *ClassScorer {
	if historyBits == 0 || historyBits > 32 {
		panic(fmt.Sprintf("bp: IF-PAs history bits %d out of range [1,32]", historyBits))
	}
	return &ClassScorer{histMask: uint32(uint64(1)<<historyBits - 1), histBits: historyBits}
}

// Names returns the Name of the predictor behind each count, in the
// order static, loop, block, IF-PAs.
func (s *ClassScorer) Names() [4]string {
	return [4]string{(&IdealStatic{}).Name(), (&Loop{}).Name(), (&Block{}).Name(), ifPAsName(s.histBits)}
}

// Score counts one branch: bit i of words is its i'th outcome, m
// outcomes in all, and back is the backward bit of its first
// occurrence (the only one a cold loop or block predictor reads).
func (s *ClassScorer) Score(words []uint64, m int, back bool) ClassCounts {
	c := ClassCounts{Fixed: BestFixedK(words, m)}
	for _, w := range words[:(m+63)/64] {
		c.Taken += bits.OnesCount64(w)
	}
	loop, block := classWalk(words, m, back)
	var ifpas int
	s.records += uint64(m)
	if size := uint64(s.histMask) + 1; s.cleared+size <= ifDenseBytesPerRecord*s.records {
		s.cleared += size
		if s.dense == nil {
			s.dense = make([]uint8, size)
		} else {
			clear(s.dense)
		}
		ifpas = classIFDense(words, m, s.dense, s.histMask)
	} else {
		ifpas = classIFHash(words, m, &s.table, s.histMask)
	}
	c.Correct = [4]int{IdealStaticCorrect(c.Taken, m), loop, block, ifpas}
	return c
}

// classWalk replays one branch's m outcomes through fresh loop and
// block states, returning each predictor's correct predictions.
//
//bplint:hot
func classWalk(words []uint64, m int, back bool) (loop, block int) {
	var ls loopState
	var bs blockState
	for i := 0; i < m; i++ {
		taken := words[i>>6]>>(uint(i)&63)&1 != 0
		if ls.predict(back) == taken {
			loop++
		}
		ls.update(taken)
		if bs.predict(back) == taken {
			block++
		}
		bs.update(taken)
	}
	return loop, block
}

// classIFDense replays one branch's m outcomes through its IF-PAs
// counters, dense[h] for local history h (hmask wide; dense zeroed by
// the caller), returning its correct predictions.
//
//bplint:hot
func classIFDense(words []uint64, m int, dense []uint8, hmask uint32) int {
	dense = dense[:uint64(hmask)+1]
	n := 0
	var h uint32
	for i := 0; i < m; i++ {
		b := uint8(words[i>>6] >> (uint(i) & 63) & 1)
		x := sweepStep[dense[h&hmask]<<1|b]
		n += int(x & 1)
		dense[h&hmask] = x >> 1
		h = h<<1 | uint32(b)
	}
	return n
}

// classPresize bounds how many distinct histories a branch's hashed
// IF-PAs table is sized for up front. A branch has at most min(m, 2^h)
// of them, and sizing for that bound spares nearly every branch any
// growth; past it the table grows with the histories it meets, so a
// regular branch with millions of outcomes never reserves millions of
// slots.
const classPresize = 1 << 15

// classIFHash is classIFDense over the hash (keyed by the bare
// history; emptied here).
//
//bplint:hot
func classIFHash(words []uint64, m int, t *ifTable, hmask uint32) int {
	histories := int(hmask) + 1
	t.reset(min(m, histories, classPresize))
	n := 0
	var h uint32
	for lo := 0; lo < m; lo += sweepTile {
		hi := min(lo+sweepTile, m)
		t.reserve(min(hi-lo, histories-t.n)) //bplint:ignore kernel-purity the table's amortized grow path: each distinct history costs O(1)
		slots := t.slots
		fresh := 0
		for i := lo; i < hi; i++ {
			b := words[i>>6] >> (uint(i) & 63) & 1
			s := &slots[t.find(uint64(h))]
			x := sweepStep[(s.c&3)<<1|Counter2(b)]
			n += int(x & 1)
			fresh += int(s.c>>2 ^ 1)
			*s = ifSlot{uint64(h), Counter2(x>>1) | ifLive}
			h = (h<<1 | uint32(b)) & hmask
		}
		t.n += fresh
	}
	return n
}
