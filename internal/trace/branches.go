package trace

// BranchStreams is the per-branch (transposed) view of a Packed trace:
// each static branch's outcomes in trace order, packed 64 to a word,
// every branch starting on a word boundary. Analyses that depend only
// on a branch's own outcome stream (the section 4.1 class predictors)
// walk one stream at a time instead of replaying the whole trace
// through per-address state.
type BranchStreams struct {
	words  []uint64
	start  []int   // branch id's words are words[start[id]:start[id+1]]
	counts []int32 // branch id's stream holds counts[id] outcomes
	back   []uint64
}

// Branches builds the per-branch view in one pass over the columns:
// records are bucketed by dense ID through prefix sums of Counts(). A
// branch's backward bit is its first occurrence's, as in SiteStats.
//
//bplint:hot
func (p *Packed) Branches() *BranchStreams {
	counts := p.counts
	start := make([]int, len(counts)+1)
	for id, c := range counts {
		start[id+1] = start[id] + (int(c)+63)/64
	}
	words := make([]uint64, start[len(counts)])
	next := make([]int, len(counts)) // bit offset of each branch's next outcome
	for id := range next {
		next[id] = 64 * start[id]
	}
	taken := p.taken
	for i, id := range p.ids {
		pos := next[id]
		next[id] = pos + 1
		words[pos>>6] |= (taken[i>>6] >> (uint(i) & 63) & 1) << (uint(pos) & 63)
	}
	return &BranchStreams{words: words, start: start, counts: counts, back: p.firstBack}
}

// Len returns the number of branches.
func (b *BranchStreams) Len() int { return len(b.counts) }

// Outcomes returns branch id's outcome stream: bit i of the words is
// its i'th outcome, m outcomes in all, and the bits past them are zero.
// Callers must not modify the words.
func (b *BranchStreams) Outcomes(id int32) (words []uint64, m int) {
	return b.words[b.start[id]:b.start[id+1]], int(b.counts[id])
}

// Backward reports whether branch id's first occurrence is a backward
// branch.
func (b *BranchStreams) Backward(id int32) bool {
	return b.back[id>>6]>>(uint(id)&63)&1 != 0
}
