package bp

import (
	"fmt"

	"branchcorr/internal/trace"
)

// Gshare is McFarling's global two-level predictor: a single global
// branch-history register XORed with the branch address indexes one shared
// pattern history table of 2-bit counters. The XOR spreads (address,
// history) pairs over the PHT, improving utilization relative to GAs, but
// the shared table still suffers interference — a central concern of the
// paper.
type Gshare struct {
	pht      []Counter2
	history  uint32
	histMask uint32
	phtMask  uint32
	histBits uint
}

// NewGshare returns a gshare predictor with historyBits of global history
// and a 2^historyBits-entry PHT, the configuration the paper calls
// "gshare" with a 16 branch history.
func NewGshare(historyBits uint) *Gshare {
	if historyBits == 0 || historyBits > 26 {
		panic(fmt.Sprintf("bp: gshare history bits %d out of range [1,26]", historyBits))
	}
	return &Gshare{
		pht:      make([]Counter2, 1<<historyBits),
		histMask: 1<<historyBits - 1,
		phtMask:  1<<historyBits - 1,
		histBits: historyBits,
	}
}

// Name implements Predictor.
func (p *Gshare) Name() string { return fmt.Sprintf("gshare(%d)", p.histBits) }

// HistoryBits returns the length of the global history register.
func (p *Gshare) HistoryBits() uint { return p.histBits }

func (p *Gshare) index(pc trace.Addr) uint32 {
	return ((uint32(pc) >> 2) ^ p.history) & p.phtMask
}

// Predict implements Predictor.
func (p *Gshare) Predict(r trace.Record) bool {
	return p.pht[p.index(r.PC)].Taken()
}

// Update implements Predictor: trains the selected counter, then shifts
// the outcome into the global history register.
func (p *Gshare) Update(r trace.Record) {
	p.pht[p.index(r.PC)].update(r.Taken)
	p.shift(r.Taken)
}

func (p *Gshare) shift(taken bool) {
	p.history <<= 1
	if taken {
		p.history |= 1
	}
	p.history &= p.histMask
}

// Reset implements Resettable.
func (p *Gshare) Reset() {
	for i := range p.pht {
		p.pht[i] = 0
	}
	p.history = 0
}

// GAs is the Yeh/Patt global two-level predictor with set-associated
// pattern history tables: the low address bits select one of several PHTs
// and the global history register indexes within it (concatenation rather
// than gshare's XOR).
type GAs struct {
	phts     [][]Counter2
	history  uint32
	histMask uint32
	addrMask uint32
	histBits uint
	addrBits uint
}

// NewGAs returns a GAs predictor with historyBits of global history and
// 2^addrBits PHTs of 2^historyBits counters each.
func NewGAs(historyBits, addrBits uint) *GAs {
	if historyBits == 0 || historyBits > 24 {
		panic(fmt.Sprintf("bp: GAs history bits %d out of range [1,24]", historyBits))
	}
	if addrBits > 12 {
		panic(fmt.Sprintf("bp: GAs address bits %d out of range [0,12]", addrBits))
	}
	phts := make([][]Counter2, 1<<addrBits)
	for i := range phts {
		phts[i] = make([]Counter2, 1<<historyBits)
	}
	return &GAs{
		phts:     phts,
		histMask: 1<<historyBits - 1,
		addrMask: 1<<addrBits - 1,
		histBits: historyBits,
		addrBits: addrBits,
	}
}

// Name implements Predictor.
func (p *GAs) Name() string { return fmt.Sprintf("GAs(%d,%d)", p.histBits, p.addrBits) }

func (p *GAs) counter(pc trace.Addr) *Counter2 {
	t := p.phts[(uint32(pc)>>2)&p.addrMask]
	return &t[p.history&p.histMask]
}

// Predict implements Predictor.
func (p *GAs) Predict(r trace.Record) bool { return p.counter(r.PC).Taken() }

// Update implements Predictor.
func (p *GAs) Update(r trace.Record) {
	p.counter(r.PC).update(r.Taken)
	p.history = (p.history << 1) & p.histMask
	if r.Taken {
		p.history |= 1
	}
}

// IFGshare is the interference-free gshare of the paper: conceptually one
// private PHT per static branch, indexed by the global history register.
// The paper notes such a predictor is "prohibitively large" in hardware;
// here the (branch, history) → counter mapping is an ifStore: a dense
// (ID, history) array while the kernel's input bounds it, else a lazily
// populated flat table (ifTable), both semantically identical.
type IFGshare struct {
	store    ifStore
	addrs    []trace.Addr // dense ID -> address of the store's dense layout
	history  uint32
	histMask uint32
	histBits uint
}

// NewIFGshare returns an interference-free gshare with historyBits of
// global history.
func NewIFGshare(historyBits uint) *IFGshare {
	if historyBits == 0 || historyBits > 32 {
		panic(fmt.Sprintf("bp: IF-gshare history bits %d out of range [1,32]", historyBits))
	}
	return &IFGshare{
		store:    ifStore{table: newIFTable()},
		histMask: uint32(uint64(1)<<historyBits - 1),
		histBits: historyBits,
	}
}

// Name implements Predictor.
func (p *IFGshare) Name() string { return fmt.Sprintf("IF-gshare(%d)", p.histBits) }

func (p *IFGshare) key(pc trace.Addr) uint64 {
	return uint64(pc)<<32 | uint64(p.history)
}

// Predict implements Predictor.
func (p *IFGshare) Predict(r trace.Record) bool {
	return p.store.hash(p.addrs, p.histBits).counter(p.key(r.PC)).Taken()
}

// Update implements Predictor.
func (p *IFGshare) Update(r trace.Record) {
	k := p.key(r.PC)
	t := p.store.hash(p.addrs, p.histBits)
	t.set(k, t.counter(k).Next(r.Taken))
	p.history = (p.history << 1) & p.histMask
	if r.Taken {
		p.history |= 1
	}
}
