// Package entropy quantifies branch predictability information-
// theoretically: for each static branch, the best accuracy any *fixed*
// predictor indexed by a given context (the branch's own last-k outcomes,
// or the global last-k outcomes) could achieve on the trace — i.e. the
// accuracy of an oracle-filled static PHT — plus the residual conditional
// entropy. The ideal static predictor is exactly the k=0 ceiling, and a
// profiled (statically-filled) PHT predictor meets the ceiling at its
// history length. Adaptive 2-bit-counter predictors usually sit below
// the ceiling (training cost) but can exceed it when the context→outcome
// mapping drifts over program phases, which a static table cannot track;
// comparing the two therefore separates training cost from phase drift.
package entropy

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sync"

	"branchcorr/internal/trace"
)

// MaxContext bounds the history length to keep context tables exact.
const MaxContext = 16

// Ceiling is one branch's predictability ceiling at each history length.
type Ceiling struct {
	// Best[k] is the maximum achievable accuracy over the trace for a
	// predictor that sees exactly the k-outcome context, k in [0, K].
	// Best[0] is the ideal-static accuracy.
	Best []float64
	// Bits[k] is the residual conditional entropy H(outcome | context)
	// in bits (0 = fully determined).
	Bits []float64
	// Total is the branch's dynamic execution count.
	Total int
}

// Result maps branches to ceilings and carries trace-wide aggregates.
type Result struct {
	PerBranch map[trace.Addr]*Ceiling
	// Weighted[k] is the dynamic-weighted average ceiling at history k.
	Weighted []float64
	// WeightedBits[k] is the dynamic-weighted residual entropy.
	WeightedBits []float64
}

// binEntropy returns the binary entropy (bits) of probability p.
func binEntropy(p float64) float64 {
	if p <= 0 || p >= 1 {
		return 0
	}
	return -p*math.Log2(p) - (1-p)*math.Log2(1-p)
}

// kind selects the conditioning context.
type kind int

const (
	localKind kind = iota
	globalKind
)

// ceilings computes per-branch ceilings with the chosen context kind.
//
// Each record is counted once, at the longest context maxK. Both
// histories start at zero and a k-bit context is the low k bits of the
// maxK-bit one, so every shorter level's (branch, context) counts are
// exact sums of the maxK level's and are folded from them, level by
// level, instead of being recounted. Working memory is one 4-byte key
// per record, the distinct contexts of one branch at a time, and at most
// one dense count table shared by all branches (see folder); no table is
// sized 2^maxK per static branch.
func ceilings(t *trace.Trace, maxK int, k kind) *Result {
	if maxK < 0 || maxK > MaxContext {
		panic(fmt.Sprintf("entropy: history length %d out of range [0,%d]", maxK, MaxContext))
	}
	p := t.Packed()
	keys, start := contextKeys(p, maxK, k)
	defer keyBufs.Put(&keys)
	counts, addrs := p.Counts(), p.Addrs()
	levels := maxK + 1

	res := &Result{
		PerBranch:    make(map[trace.Addr]*Ceiling, len(addrs)),
		Weighted:     make([]float64, levels),
		WeightedBits: make([]float64, levels),
	}
	// Aggregate in ascending branch (and, within a level, context)
	// order: float addition is not associative, so any other order would
	// change the weighted ceilings in their low bits. Each level keeps
	// its own running sums, so visiting branches once, all levels per
	// branch, adds in the same order as visiting levels outermost.
	order := make([]int32, len(addrs))
	for id := range order {
		order[id] = int32(id)
	}
	slices.SortFunc(order, func(a, b int32) int { return cmp.Compare(addrs[a], addrs[b]) })
	grandBest := make([]int, levels)
	vals := make([]float64, 2*levels*len(addrs))
	var f folder
	for i, id := range order {
		total := int(counts[id])
		row := vals[2*levels*i:]
		c := &Ceiling{
			Best:  row[:levels:levels],
			Bits:  row[levels : 2*levels : 2*levels],
			Total: total,
		}
		res.PerBranch[addrs[id]] = c
		lvl := f.count(keys[start[id]:start[id+1]], maxK)
		for kk := maxK; kk >= 0; kk-- {
			if kk < maxK {
				lvl = f.fold(lvl, kk)
			}
			best, bits := score(lvl)
			c.Best[kk] = float64(best) / float64(total)
			c.Bits[kk] = bits / float64(total)
			grandBest[kk] += best
			res.WeightedBits[kk] += bits
		}
	}
	grand := float64(p.Len())
	for kk := range res.Weighted {
		res.Weighted[kk] = float64(grandBest[kk]) / grand
		res.WeightedBits[kk] /= grand
	}
	return res
}

// keyBufs recycles contextKeys' per-record key buffers. The exhibit
// computes local and global ceilings back to back over traces of equal
// length, so without reuse every call would leave a 4-byte-per-record
// buffer for the collector, and that churn alone raised the oracle-free
// report's peak RSS by about a tenth.
var keyBufs sync.Pool

// contextKeys walks the trace once and returns, for every record, the
// key ctx<<1 | taken, where ctx is the record's maxK-bit context of the
// chosen kind. Keys are grouped by branch ID: branch id's keys are
// keys[start[id]:start[id+1]], in trace order. The keys buffer comes
// from keyBufs; the caller puts it back.
//
//bplint:hot
func contextKeys(p *trace.Packed, maxK int, k kind) (keys []uint32, start []int32) {
	counts := p.Counts()
	start = make([]int32, len(counts)+1)
	for id, c := range counts {
		start[id+1] = start[id] + c
	}
	next := slices.Clone(start[:len(counts)])
	if buf, _ := keyBufs.Get().(*[]uint32); buf != nil && cap(*buf) >= p.Len() {
		keys = (*buf)[:p.Len()]
	} else {
		keys = make([]uint32, p.Len())
	}
	taken := p.TakenWords()
	mask := uint32(1)<<maxK - 1
	if k == localKind {
		hist := make([]uint32, len(counts))
		for i, id := range p.IDs() {
			bit := uint32(taken[i>>6]>>(uint(i)&63)) & 1
			h := hist[id]
			keys[next[id]] = h<<1 | bit
			next[id]++
			hist[id] = (h<<1 | bit) & mask
		}
		return keys, start
	}
	var h uint32
	for i, id := range p.IDs() {
		bit := uint32(taken[i>>6]>>(uint(i)&63)) & 1
		keys[next[id]] = h<<1 | bit
		next[id]++
		h = (h<<1 | bit) & mask
	}
	return keys, start
}

// ctxCount is one context's outcome counts at one level.
type ctxCount struct {
	ctx uint32
	n   [2]int32 // [notTaken, taken]
}

// folder holds the scratch one branch's levels are built in, reused
// across branches: two ping-pong level buffers, and a dense count table
// (2^(maxK+1) entries, one per key) shared by every branch with enough
// records to amortize scanning it.
type folder struct {
	bufs  [2][]ctxCount
	cur   int
	dense []int32
}

// next returns the level buffer not holding the current level, emptied.
func (f *folder) next() []ctxCount {
	f.cur ^= 1
	return f.bufs[f.cur][:0]
}

// count tallies one branch's keys into its maxK-level contexts, in
// ascending context order. It may reorder keys.
func (f *folder) count(keys []uint32, maxK int) []ctxCount {
	out := f.next()
	// The dense table pays for its size/2-step scan once a bucket holds
	// a sizeable share of its entries; sparse buckets sort instead. On
	// random keys (uniform, or drawn from 32 values) at maxK 8, 12 and
	// 16, sorting wins up to size/64 and the table from size/8 up;
	// between the two the winner depends on how many distinct keys the
	// bucket holds.
	if size := 2 << maxK; len(keys) >= size/8 {
		if f.dense == nil {
			f.dense = make([]int32, size)
		}
		tab := f.dense
		for _, key := range keys {
			tab[key]++
		}
		for key := 0; key < size; key += 2 {
			if n0, n1 := tab[key], tab[key+1]; n0|n1 != 0 {
				out = append(out, ctxCount{ctx: uint32(key >> 1), n: [2]int32{n0, n1}})
				tab[key], tab[key+1] = 0, 0
			}
		}
	} else {
		slices.Sort(keys)
		for i := 0; i < len(keys); {
			ctx := keys[i] >> 1
			e := ctxCount{ctx: ctx}
			for ; i < len(keys) && keys[i]>>1 == ctx; i++ {
				e.n[keys[i]&1]++
			}
			out = append(out, e)
		}
	}
	f.bufs[f.cur] = out
	return out
}

// fold derives level kk's contexts from level kk+1's (lvl, ascending).
// Dropping bit kk splits lvl into two runs already ascending in their
// low kk bits, those without the bit and those with it, so the folded
// level is their merge, summing contexts that meet.
func (f *folder) fold(lvl []ctxCount, kk int) []ctxCount {
	half := uint32(1) << kk
	split, _ := slices.BinarySearchFunc(lvl, half, func(e ctxCount, t uint32) int { return cmp.Compare(e.ctx, t) })
	lo, hi := lvl[:split], lvl[split:]
	out := f.next()
	i, j := 0, 0
	for i < len(lo) && j < len(hi) {
		a, b := lo[i], hi[j]
		b.ctx -= half
		switch {
		case a.ctx < b.ctx:
			out = append(out, a)
			i++
		case a.ctx > b.ctx:
			out = append(out, b)
			j++
		default:
			out = append(out, ctxCount{ctx: a.ctx, n: [2]int32{a.n[0] + b.n[0], a.n[1] + b.n[1]}})
			i++
			j++
		}
	}
	out = append(out, lo[i:]...)
	for _, b := range hi[j:] {
		b.ctx -= half
		out = append(out, b)
	}
	f.bufs[f.cur] = out
	return out
}

// score returns one level's majority count (the static table's correct
// predictions) and its unnormalized residual entropy, summed over the
// contexts in ascending order.
func score(lvl []ctxCount) (best int, bits float64) {
	for _, e := range lvl {
		n0, n1 := int(e.n[0]), int(e.n[1])
		best += max(n0, n1)
		n := n0 + n1
		bits += float64(n) * binEntropy(float64(n1)/float64(n))
	}
	return best, bits
}

// LocalCeilings computes, per branch, the best accuracy of a statically
// filled table seeing the branch's own last-k outcomes (the fixed-table
// ceiling for the paper's per-address predictability, section 4).
func LocalCeilings(t *trace.Trace, maxK int) *Result {
	return ceilings(t, maxK, localKind)
}

// GlobalCeilings computes, per branch, the best accuracy of a statically
// filled table seeing the global last-k outcomes (the fixed-table ceiling
// for the paper's global correlation, section 3).
func GlobalCeilings(t *trace.Trace, maxK int) *Result {
	return ceilings(t, maxK, globalKind)
}
