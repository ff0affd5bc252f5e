package bp

// SetIFDenseBytesPerRecord sets the dense interference-free layout's
// budget per input record (0 keeps every store on the hash, a large
// value puts every store that fits in memory on the dense layout) and
// returns a func that restores the default.
func SetIFDenseBytesPerRecord(b uint64) (restore func()) {
	old := ifDenseBytesPerRecord
	ifDenseBytesPerRecord = b
	return func() { ifDenseBytesPerRecord = old }
}

// IFDense reports whether p, an IFGshare or IFPAs, holds its counters
// in the dense layout.
func IFDense(p Predictor) bool {
	switch p := p.(type) {
	case *IFGshare:
		return p.store.dense != nil
	case *IFPAs:
		return p.store.dense != nil
	}
	return false
}

// IFGridDense reports, per config of an IF grid, whether its store is
// in the dense layout.
func IFGridDense(g SweepGrid) []bool {
	var stores []ifStore
	switch g := g.(type) {
	case *IFGshareSweep:
		stores = g.stores
	case *IFPAsSweep:
		stores = g.stores
	}
	out := make([]bool, len(stores))
	for c := range stores {
		out[c] = stores[c].dense != nil
	}
	return out
}
