package entropy

import (
	"fmt"
	"sort"

	"branchcorr/internal/trace"
)

// referenceCeilings is the executable specification of ceilings: every
// record is hashed into a per-length map of per-branch context counts,
// one lookup per history length, and the aggregates are summed in
// ascending branch and context order. The production path must match it
// bit for bit (TestCeilingsMatchReference).
func referenceCeilings(t *trace.Trace, maxK int, k kind) *Result {
	if maxK < 0 || maxK > MaxContext {
		panic(fmt.Sprintf("entropy: history length %d out of range [0,%d]", maxK, MaxContext))
	}
	// counts[k][branch][context] = [notTaken, taken]
	type ctxCounts map[uint32]*[2]int
	counts := make([]map[trace.Addr]ctxCounts, maxK+1)
	for i := range counts {
		counts[i] = make(map[trace.Addr]ctxCounts)
	}
	localHist := make(map[trace.Addr]uint32)
	globalHist := uint32(0)
	totals := make(map[trace.Addr]int)
	pt := t.Packed()
	for i := 0; i < pt.Len(); i++ {
		r := pt.Record(i)
		totals[r.PC]++
		var hist uint32
		if k == localKind {
			hist = localHist[r.PC]
		} else {
			hist = globalHist
		}
		for kk := 0; kk <= maxK; kk++ {
			ctx := hist & (1<<kk - 1)
			m := counts[kk][r.PC]
			if m == nil {
				m = make(ctxCounts)
				counts[kk][r.PC] = m
			}
			c := m[ctx]
			if c == nil {
				c = &[2]int{}
				m[ctx] = c
			}
			if r.Taken {
				c[1]++
			} else {
				c[0]++
			}
		}
		bit := uint32(0)
		if r.Taken {
			bit = 1
		}
		if k == localKind {
			localHist[r.PC] = localHist[r.PC]<<1 | bit
		} else {
			globalHist = globalHist<<1 | bit
		}
	}

	res := &Result{
		PerBranch:    make(map[trace.Addr]*Ceiling, len(totals)),
		Weighted:     make([]float64, maxK+1),
		WeightedBits: make([]float64, maxK+1),
	}
	// Aggregate in sorted branch (and context) order: float addition is
	// not associative, so summing in map iteration order would make the
	// weighted ceilings differ in their low bits from run to run.
	pcs := make([]trace.Addr, 0, len(totals))
	grand := 0
	for pc, total := range totals {
		pcs = append(pcs, pc)
		res.PerBranch[pc] = &Ceiling{
			Best:  make([]float64, maxK+1),
			Bits:  make([]float64, maxK+1),
			Total: total,
		}
		grand += total
	}
	sort.Slice(pcs, func(i, j int) bool { return pcs[i] < pcs[j] })
	for kk := 0; kk <= maxK; kk++ {
		grandBest := 0
		grandBits := 0.0
		for _, pc := range pcs {
			m := counts[kk][pc]
			c := res.PerBranch[pc]
			ctxs := make([]uint32, 0, len(m))
			for ctx := range m {
				ctxs = append(ctxs, ctx)
			}
			sort.Slice(ctxs, func(i, j int) bool { return ctxs[i] < ctxs[j] })
			best := 0
			bits := 0.0
			for _, ctx := range ctxs {
				cnt := m[ctx]
				maj := cnt[0]
				if cnt[1] > maj {
					maj = cnt[1]
				}
				best += maj
				n := cnt[0] + cnt[1]
				bits += float64(n) * binEntropy(float64(cnt[1])/float64(n))
			}
			c.Best[kk] = float64(best) / float64(c.Total)
			c.Bits[kk] = bits / float64(c.Total)
			grandBest += best
			grandBits += bits
		}
		res.Weighted[kk] = float64(grandBest) / float64(grand)
		res.WeightedBits[kk] = grandBits / float64(grand)
	}
	return res
}
