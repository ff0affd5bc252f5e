package bp

import (
	"fmt"

	"branchcorr/internal/trace"
)

// Perceptron is the perceptron predictor (Jiménez & Lin, HPCA 2001), the
// line of work that followed directly from the paper's observation that
// only a few history bits carry signal for any given branch: a
// perceptron *learns a weight per history bit*, so uncorrelated history
// positions converge to weight ≈ 0 instead of polluting a pattern table.
// It is included as the natural "what came next" extension: the selective
// history of section 3.4 chooses the important bits with an oracle, the
// perceptron learns them online.
type Perceptron struct {
	weights   [][]int8 // [table][historyBits+1], last entry is the bias weight
	history   []int8   // +1 taken, -1 not-taken, most recent first
	mask      uint32
	histLen   int
	thresh    int32
	tableBits uint
}

// NewPerceptron returns a perceptron predictor with historyLen history
// bits and 2^tableBits perceptrons. The training threshold uses the
// original paper's θ = ⌊1.93·h + 14⌋.
func NewPerceptron(historyLen int, tableBits uint) *Perceptron {
	if historyLen <= 0 || historyLen > 64 {
		panic(fmt.Sprintf("bp: perceptron history %d out of range [1,64]", historyLen))
	}
	if tableBits == 0 || tableBits > 20 {
		panic(fmt.Sprintf("bp: perceptron table bits %d out of range [1,20]", tableBits))
	}
	weights := make([][]int8, 1<<tableBits)
	for i := range weights {
		weights[i] = make([]int8, historyLen+1)
	}
	return &Perceptron{
		weights:   weights,
		history:   make([]int8, historyLen),
		mask:      1<<tableBits - 1,
		histLen:   historyLen,
		thresh:    int32(1.93*float64(historyLen) + 14),
		tableBits: tableBits,
	}
}

// Name implements Predictor.
func (p *Perceptron) Name() string {
	return fmt.Sprintf("perceptron(%d,%d)", p.histLen, p.tableBits)
}

func (p *Perceptron) index(pc trace.Addr) uint32 {
	return (uint32(pc) >> 2) & p.mask
}

// output computes the perceptron dot product for the branch.
func (p *Perceptron) output(pc trace.Addr) int32 {
	w := p.weights[p.index(pc)]
	y := int32(w[p.histLen]) // bias weight
	for i := 0; i < p.histLen; i++ {
		y += int32(w[i]) * int32(p.history[i])
	}
	return y
}

// Predict implements Predictor.
func (p *Perceptron) Predict(r trace.Record) bool {
	return p.output(r.PC) >= 0
}

// Update implements Predictor: train on a misprediction or when the
// output magnitude is below the threshold, with saturating int8 weights.
func (p *Perceptron) Update(r trace.Record) {
	y := p.output(r.PC)
	pred := y >= 0
	t := int8(-1)
	if r.Taken {
		t = 1
	}
	if pred != r.Taken || abs32(y) <= p.thresh {
		w := p.weights[p.index(r.PC)]
		w[p.histLen] = satAdd8(w[p.histLen], t)
		for i := 0; i < p.histLen; i++ {
			w[i] = satAdd8(w[i], t*p.history[i])
		}
	}
	copy(p.history[1:], p.history[:p.histLen-1])
	p.history[0] = t
}

func abs32(v int32) int32 {
	if v < 0 {
		return -v
	}
	return v
}

func satAdd8(a, b int8) int8 {
	s := int16(a) + int16(b)
	if s > 127 {
		return 127
	}
	if s < -128 {
		return -128
	}
	return int8(s)
}

var _ Predictor = (*Perceptron)(nil)

// Tournament is the Alpha 21264-style hybrid: a PAs-like local predictor
// and a global predictor arbitrated by a chooser indexed by *global
// history* (not address, as McFarling's chooser is). It is the
// production embodiment of the paper's section 5 conclusion that large
// branch sets prefer each component.
type Tournament struct {
	local   *PAs
	global  *Gshare
	chooser []Counter2
	history uint32
	mask    uint32
	bits    uint
	tiles   chooserTiles // SimulateBlock staging
}

// NewTournament returns a tournament predictor with the given component
// geometries and a 2^chooserBits-entry history-indexed chooser. Chooser
// entries start at zero (StronglyNotTaken): strongly selecting the
// local component, two steps from selecting the global one.
func NewTournament(localHist, localBHT uint, globalHist, chooserBits uint) *Tournament {
	if chooserBits == 0 || chooserBits > 26 {
		panic(fmt.Sprintf("bp: tournament chooser bits %d out of range [1,26]", chooserBits))
	}
	return &Tournament{
		local:   NewPAs(localHist, localBHT, 0),
		global:  NewGshare(globalHist),
		chooser: make([]Counter2, 1<<chooserBits),
		mask:    1<<chooserBits - 1,
		bits:    chooserBits,
	}
}

// Name implements Predictor.
func (p *Tournament) Name() string { return fmt.Sprintf("tournament(%d)", p.bits) }

// Predict implements Predictor: chooser ≥ 2 selects the global side.
func (p *Tournament) Predict(r trace.Record) bool {
	if p.chooser[p.history&p.mask].Taken() {
		return p.global.Predict(r)
	}
	return p.local.Predict(r)
}

// Update implements Predictor.
func (p *Tournament) Update(r trace.Record) {
	lp := p.local.Predict(r)
	gp := p.global.Predict(r)
	if lp != gp {
		c := &p.chooser[p.history&p.mask]
		*c = c.Next(gp == r.Taken)
	}
	p.local.Update(r)
	p.global.Update(r)
	p.history = (p.history << 1) & p.mask
	if r.Taken {
		p.history |= 1
	}
}

var _ Predictor = (*Tournament)(nil)
