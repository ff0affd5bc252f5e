package bp

import (
	"fmt"

	"branchcorr/internal/trace"
)

// Hybrid is McFarling's combining predictor: two component predictors and
// a table of 2-bit chooser counters indexed by branch address. The chooser
// counts which component has been more accurate for branches mapping to
// its entry and selects that component's prediction. Hybrids are the
// motivation for section 5 of the paper: a large set of branches strongly
// prefers the global component and another large set strongly prefers the
// per-address component.
type Hybrid struct {
	a, b       Predictor
	chooser    []Counter2
	chooseMask uint32
	bits       uint
	tiles      chooserTiles // SimulateBlock staging
}

// NewHybrid combines predictors a and b under a 2^chooserBits-entry
// chooser. Chooser values >= 2 select a, < 2 select b. Entries start at
// WeaklyNotTaken (1): selecting b, but one step from selecting a, so
// one record on which only a is right makes its entry select a. The
// zero value (StronglyNotTaken) would instead strongly prefer b.
func NewHybrid(a, b Predictor, chooserBits uint) *Hybrid {
	if chooserBits == 0 || chooserBits > 26 {
		panic(fmt.Sprintf("bp: hybrid chooser bits %d out of range [1,26]", chooserBits))
	}
	h := &Hybrid{
		a:          a,
		b:          b,
		chooser:    make([]Counter2, 1<<chooserBits),
		chooseMask: 1<<chooserBits - 1,
		bits:       chooserBits,
	}
	for i := range h.chooser {
		h.chooser[i] = WeaklyNotTaken // 1: weakly prefers b, one step from a
	}
	return h
}

// Name implements Predictor.
func (h *Hybrid) Name() string {
	return fmt.Sprintf("hybrid(%s,%s,%d)", h.a.Name(), h.b.Name(), h.bits)
}

func (h *Hybrid) index(pc trace.Addr) uint32 { return (uint32(pc) >> 2) & h.chooseMask }

// Predict implements Predictor.
func (h *Hybrid) Predict(r trace.Record) bool {
	if h.chooser[h.index(r.PC)].Taken() {
		return h.a.Predict(r)
	}
	return h.b.Predict(r)
}

// Update implements Predictor: the chooser trains toward whichever
// component was correct (no movement when both agree in correctness), and
// both components always train.
func (h *Hybrid) Update(r trace.Record) {
	pa := h.a.Predict(r)
	pb := h.b.Predict(r)
	if pa != pb {
		c := &h.chooser[h.index(r.PC)]
		c.update(pa == r.Taken)
	}
	h.a.Update(r)
	h.b.Update(r)
}
