// Allocation gates for the fused sweep kernels: after the first block
// of a stream has grown the per-ID derived columns, SweepBlock must not
// allocate — the fused inner loop runs entirely over cached state. This
// is the dynamic cross-check of the kernel-purity lint claim on the
// //bplint:hot sweep loops.
package bp_test

import (
	"testing"

	"branchcorr/internal/bp"
)

// TestSweepBlockAllocs pins steady-state SweepBlock at zero allocations
// per call for every fused family, on both a full-range block and an
// interior chunk (the streamed shape).
func TestSweepBlockAllocs(t *testing.T) {
	tr := kernelRandomTrace(7, 20_000)
	pt := tr.Packed()
	full := blockOf(pt, 0, pt.Len())
	mid := blockOf(pt, pt.Len()/4, pt.Len()/2)
	for family, mk := range sweepGrids() {
		g := mk()
		correct := make([]int32, len(g.ConfigNames()))
		// Warm-up: the first block extends the cached per-ID columns
		// (pcx, bank bases) to cover every interned address.
		g.SweepBlock(full, correct)
		for name, blk := range map[string]bp.KernelBlock{"full": full, "mid": mid} {
			if n := testing.AllocsPerRun(10, func() { g.SweepBlock(blk, correct) }); n != 0 {
				t.Errorf("%s: %.1f allocs per steady-state SweepBlock (%s range), want 0", family, n, name)
			}
		}
	}
}

// TestSweepBlockAllocsIFGrids bounds the interference-free families,
// whose tables grow with the (address, history) pairs they meet: the
// per-record path must not allocate, but a replayed block starts from a
// different history register than the last replay, so its first few
// records can key previously unseen pairs (at most historyBits per
// config per replay), and a table that crosses its load bound doubles.
// The gate is therefore a small constant per whole-block call —
// anything per-record would cost tens of thousands.
func TestSweepBlockAllocsIFGrids(t *testing.T) {
	tr := kernelRandomTrace(7, 20_000)
	pt := tr.Packed()
	full := blockOf(pt, 0, pt.Len())
	for family, mk := range ifSweepGrids() {
		g := mk()
		correct := make([]int32, len(g.ConfigNames()))
		// Warm-up: grows the per-ID key columns and populates the steady
		// keys; two passes so replay-boundary keys mostly exist too.
		g.SweepBlock(full, correct)
		g.SweepBlock(full, correct)
		if n := testing.AllocsPerRun(10, func() { g.SweepBlock(full, correct) }); n > 64 {
			t.Errorf("%s: %.1f allocs per steady-state SweepBlock, want boundary-bounded (<= 64)", family, n)
		}
	}
}
