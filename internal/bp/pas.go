package bp

import (
	"fmt"

	"branchcorr/internal/trace"
)

// PAs is the Yeh/Patt per-address two-level predictor: each static branch
// has its own history register (held in a branch history table indexed by
// address), and the per-branch history pattern indexes into one of several
// shared pattern history tables selected by the low address bits. Both the
// history table and the PHTs are finite, so distinct branches interfere in
// both levels — the effect the interference-free variant removes.
type PAs struct {
	bht      []uint32 // per-address history registers
	phts     [][]Counter2
	histMask uint32
	bhtMask  uint32
	phtMask  uint32
	histBits uint
	bhtBits  uint
	phtBits  uint
}

// NewPAs returns a PAs predictor with historyBits of local history per
// branch, a 2^bhtBits-entry branch history table, and 2^phtBits shared
// PHTs of 2^historyBits counters each.
func NewPAs(historyBits, bhtBits, phtBits uint) *PAs {
	if historyBits == 0 || historyBits > 24 {
		panic(fmt.Sprintf("bp: PAs history bits %d out of range [1,24]", historyBits))
	}
	if bhtBits == 0 || bhtBits > 24 {
		panic(fmt.Sprintf("bp: PAs BHT bits %d out of range [1,24]", bhtBits))
	}
	if phtBits > 12 {
		panic(fmt.Sprintf("bp: PAs PHT-select bits %d out of range [0,12]", phtBits))
	}
	phts := make([][]Counter2, 1<<phtBits)
	for i := range phts {
		phts[i] = make([]Counter2, 1<<historyBits)
	}
	return &PAs{
		bht:      make([]uint32, 1<<bhtBits),
		phts:     phts,
		histMask: 1<<historyBits - 1,
		bhtMask:  1<<bhtBits - 1,
		phtMask:  1<<phtBits - 1,
		histBits: historyBits,
		bhtBits:  bhtBits,
		phtBits:  phtBits,
	}
}

// Name implements Predictor.
func (p *PAs) Name() string {
	return fmt.Sprintf("PAs(%d,%d,%d)", p.histBits, p.bhtBits, p.phtBits)
}

func (p *PAs) counter(pc trace.Addr) *Counter2 {
	hist := p.bht[(uint32(pc)>>2)&p.bhtMask] & p.histMask
	t := p.phts[(uint32(pc)>>2)&p.phtMask]
	return &t[hist]
}

// Predict implements Predictor.
func (p *PAs) Predict(r trace.Record) bool { return p.counter(r.PC).Taken() }

// Update implements Predictor: trains the counter selected by the current
// local history, then shifts the outcome into this branch's history
// register.
func (p *PAs) Update(r trace.Record) {
	p.counter(r.PC).update(r.Taken)
	i := (uint32(r.PC) >> 2) & p.bhtMask
	p.bht[i] = (p.bht[i] << 1) & p.histMask
	if r.Taken {
		p.bht[i] |= 1
	}
}

// IFPAs is the interference-free PAs: every static branch has an unshared
// history register and an unshared pattern table (the "very large BTB" of
// section 4.1.3), so only a branch's own past outcomes influence its
// prediction. It is the paper's stand-in for the non-repeating-pattern
// predictability class.
type IFPAs struct {
	hist     map[trace.Addr]uint32
	store    ifStore      // as IFGshare's
	addrs    []trace.Addr // dense ID -> address of the store's dense layout
	histMask uint32
	histBits uint
}

// NewIFPAs returns an interference-free PAs with historyBits of local
// history per branch.
func NewIFPAs(historyBits uint) *IFPAs {
	if historyBits == 0 || historyBits > 32 {
		panic(fmt.Sprintf("bp: IF-PAs history bits %d out of range [1,32]", historyBits))
	}
	return &IFPAs{
		hist:     make(map[trace.Addr]uint32),
		store:    ifStore{table: newIFTable()},
		histMask: uint32(uint64(1)<<historyBits - 1),
		histBits: historyBits,
	}
}

// Name implements Predictor.
func (p *IFPAs) Name() string { return ifPAsName(p.histBits) }

// ifPAsName names the IF-PAs configuration with historyBits of local
// history.
func ifPAsName(historyBits uint) string { return fmt.Sprintf("IF-PAs(%d)", historyBits) }

func (p *IFPAs) key(pc trace.Addr) uint64 {
	return uint64(pc)<<32 | uint64(p.hist[pc]&p.histMask)
}

// Predict implements Predictor.
func (p *IFPAs) Predict(r trace.Record) bool {
	return p.store.hash(p.addrs, p.histBits).counter(p.key(r.PC)).Taken()
}

// Update implements Predictor.
func (p *IFPAs) Update(r trace.Record) {
	k := p.key(r.PC)
	t := p.store.hash(p.addrs, p.histBits)
	t.set(k, t.counter(k).Next(r.Taken))
	h := (p.hist[r.PC] << 1) & p.histMask
	if r.Taken {
		h |= 1
	}
	p.hist[r.PC] = h
}
