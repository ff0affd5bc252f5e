package trace

import "testing"

func mk(name string, pcBase Addr, n int) *Trace {
	t := New(name, n)
	for i := 0; i < n; i++ {
		t.Append(Record{PC: pcBase + Addr(i%7)*4, Taken: i%3 != 0})
	}
	return t
}

func TestInterleaveRoundRobin(t *testing.T) {
	a := mk("a", 0x100, 10)
	b := mk("b", 0x900, 10)
	out := Interleave("ab", 4, a, b)
	if out.Len() != 20 {
		t.Fatalf("len = %d, want 20", out.Len())
	}
	// Expect a[0:4], b[0:4], a[4:8], b[4:8], a[8:10], b[8:10].
	want := append([]Record{}, records(a)[0:4]...)
	want = append(want, records(b)[0:4]...)
	want = append(want, records(a)[4:8]...)
	want = append(want, records(b)[4:8]...)
	want = append(want, records(a)[8:10]...)
	want = append(want, records(b)[8:10]...)
	for i, w := range want {
		if out.At(i) != w {
			t.Fatalf("record %d = %v, want %v", i, out.At(i), w)
		}
	}
}

func TestInterleaveUnequalLengths(t *testing.T) {
	a := mk("a", 0x100, 13)
	b := mk("b", 0x900, 3)
	out := Interleave("ab", 5, a, b)
	if out.Len() != 16 {
		t.Fatalf("len = %d, want 16", out.Len())
	}
	// b contributes only its 3 records in the first round.
	if out.At(5).PC < 0x900 {
		t.Error("b's records missing from first round")
	}
}

func TestInterleavePreservesPerProgramOrder(t *testing.T) {
	a := mk("a", 0x100, 50)
	b := mk("b", 0x900, 37)
	out := Interleave("ab", 8, a, b)
	var gotA, gotB []Record
	for _, r := range records(out) {
		if r.PC < 0x900 {
			gotA = append(gotA, r)
		} else {
			gotB = append(gotB, r)
		}
	}
	if len(gotA) != 50 || len(gotB) != 37 {
		t.Fatalf("partition sizes %d/%d", len(gotA), len(gotB))
	}
	for i, r := range gotA {
		if r != a.At(i) {
			t.Fatalf("a's order broken at %d", i)
		}
	}
	for i, r := range gotB {
		if r != b.At(i) {
			t.Fatalf("b's order broken at %d", i)
		}
	}
}

func TestInterleaveEdgeCases(t *testing.T) {
	if out := Interleave("none", 4); out.Len() != 0 {
		t.Error("no traces should give empty result")
	}
	a := mk("a", 0x100, 5)
	out := Interleave("solo", 2, a)
	for i := range records(a) {
		if out.At(i) != a.At(i) {
			t.Fatal("single-trace interleave should be identity")
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("quantum 0 should panic")
		}
	}()
	Interleave("bad", 0, a)
}
