package bp

import "testing"

// TestGrowColumnAmortized pins the per-ID column growth a stream's
// intern table drives: interning one ID per block must reslice within
// capacity and reallocate only amortized, never doubling per call.
func TestGrowColumnAmortized(t *testing.T) {
	var col []uint32
	grows := 0
	for n := 1; n <= 5000; n++ {
		before := cap(col)
		col = growColumn(col, n)
		if len(col) != n {
			t.Fatalf("len %d after growing to %d", len(col), n)
		}
		if cap(col) != before {
			grows++
		}
		if cap(col) > 4*n+64 {
			t.Fatalf("cap %d for %d entries", cap(col), n)
		}
	}
	if grows > 40 {
		t.Errorf("%d reallocations for 5000 single-ID growths", grows)
	}
	if got := growColumn(col, 10); len(got) != 5000 {
		t.Errorf("growColumn shrank the column to %d", len(got))
	}
}
