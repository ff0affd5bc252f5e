package bp

import (
	"fmt"

	"branchcorr/internal/trace"
)

// ProfiledGshare is a gshare whose PHT is statically determined from a
// profiling run instead of adapting with 2-bit counters: every PHT entry
// is fixed to the majority outcome observed for that (address XOR
// history) index during profiling. Sechrest et al. and Young et al.
// (section 2.2 of the paper) found that with the same profiling and
// testing set such a static PHT can match or beat the adaptive one —
// adaptivity mostly buys tolerance to input change, not accuracy. The
// BenchmarkAblationStaticPHT ablation reproduces that comparison.
type ProfiledGshare struct {
	pht      []bool // majority direction per index
	history  uint32
	mask     uint32
	histBits uint
}

// NewProfiledGshare profiles t and returns the statically-filled gshare
// with historyBits of global history.
func NewProfiledGshare(t *trace.Trace, historyBits uint) *ProfiledGshare {
	if historyBits == 0 || historyBits > 26 {
		panic(fmt.Sprintf("bp: profiled gshare history bits %d out of range [1,26]", historyBits))
	}
	mask := uint32(1)<<historyBits - 1
	taken := make([]int32, 1<<historyBits)
	total := make([]int32, 1<<historyBits)
	history := uint32(0)
	p := t.Packed()
	for i := 0; i < p.Len(); i++ {
		r := p.Record(i)
		idx := ((uint32(r.PC) >> 2) ^ history) & mask
		total[idx]++
		if r.Taken {
			taken[idx]++
		}
		history = (history << 1) & mask
		if r.Taken {
			history |= 1
		}
	}
	pht := make([]bool, len(taken))
	for i := range pht {
		pht[i] = taken[i]*2 >= total[i] && total[i] > 0
	}
	return &ProfiledGshare{pht: pht, mask: mask, histBits: historyBits}
}

// Name implements Predictor.
func (p *ProfiledGshare) Name() string {
	return fmt.Sprintf("profiled-gshare(%d)", p.histBits)
}

// Predict implements Predictor.
func (p *ProfiledGshare) Predict(r trace.Record) bool {
	return p.pht[((uint32(r.PC)>>2)^p.history)&p.mask]
}

// Update implements Predictor: only the history register moves; the PHT
// is static.
func (p *ProfiledGshare) Update(r trace.Record) {
	p.history = (p.history << 1) & p.mask
	if r.Taken {
		p.history |= 1
	}
}

var _ Predictor = (*ProfiledGshare)(nil)
