package workloads

import (
	"bytes"
	"testing"
	"testing/quick"
)

// testTracer returns a tracer with a limit of 4M branches, far above
// what any subsystem test emits, so subsystem logic can be exercised
// directly without trace-length plumbing. Its PC column grows as
// branches arrive.
func testTracer() *Tracer {
	const limit = 1 << 22
	return &Tracer{taken: make([]uint64, limit/64), back: make([]uint64, limit/64), limit: limit}
}

func TestLZWRoundTripDirect(t *testing.T) {
	s := newCompressSites()
	cases := [][]byte{
		[]byte("aaaaaaaaaaaaaaaaaaaaaaaa"),
		[]byte("abcabcabcabcabcabcabcabc"),
		[]byte("the quick brown fox jumps over the lazy dog"),
		bytes.Repeat([]byte("tobeornottobe"), 50),
	}
	for _, in := range cases {
		tr := testTracer()
		codes := lzwEncode(tr, s, in)
		out := lzwDecode(tr, s, codes)
		if !bytes.Equal(out, in) {
			t.Errorf("round trip failed for %q: got %q", in, out)
		}
		if len(codes) >= len(in) && len(in) > 20 {
			t.Errorf("no compression for %q: %d codes for %d bytes", in[:20], len(codes), len(in))
		}
	}
}

// TestLZWRoundTripProperty: any non-empty lowercase byte string
// round-trips, including ones that force dictionary resets.
func TestLZWRoundTripProperty(t *testing.T) {
	s := newCompressSites()
	f := func(raw []byte) bool {
		if len(raw) == 0 {
			return true
		}
		in := make([]byte, len(raw))
		for i, b := range raw {
			in[i] = 'a' + b%26
		}
		tr := testTracer()
		codes := lzwEncode(tr, s, in)
		return bytes.Equal(lzwDecode(tr, s, codes), in)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestLZWKwKwKCase(t *testing.T) {
	// "ababab..." triggers the code==nextCode (KwKwK) decoder path.
	s := newCompressSites()
	in := bytes.Repeat([]byte("ab"), 100)
	tr := testTracer()
	codes := lzwEncode(tr, s, in)
	if out := lzwDecode(tr, s, codes); !bytes.Equal(out, in) {
		t.Error("KwKwK round trip failed")
	}
}

func TestLZWDictionaryReset(t *testing.T) {
	// Enough distinct digrams to overflow the 4096-entry dictionary and
	// force the reset path on both sides.
	s := newCompressSites()
	rng := newPRNG(0xFEED)
	in := make([]byte, 60000)
	for i := range in {
		in[i] = byte('a' + rng.intn(26))
	}
	tr := testTracer()
	codes := lzwEncode(tr, s, in)
	if out := lzwDecode(tr, s, codes); !bytes.Equal(out, in) {
		t.Error("round trip across dictionary reset failed")
	}
}

func testGCCState() *gccState {
	return &gccState{
		t: testTracer(), s: newGCCSites(), rng: newPRNG(1),
		names: []string{"i", "n"},
		cse:   make(map[uint32]int),
	}
}

func TestPeepholeFoldsConstants(t *testing.T) {
	g := testGCCState()
	// push 2; push 3; * ; push 4; +   =>   push 6; push 4; +  => push 10
	g.code = []gccInst{
		{op: 'c', val: 2}, {op: 'c', val: 3}, {op: '*'},
		{op: 'c', val: 4}, {op: '+'},
	}
	g.peephole()
	if len(g.code) != 1 || g.code[0].op != 'c' || g.code[0].val != 10 {
		t.Errorf("peephole result: %+v", g.code)
	}
}

func TestPeepholeRemovesNoOps(t *testing.T) {
	g := testGCCState()
	// push v; push 0; +  => push v
	g.code = []gccInst{{op: 'v'}, {op: 'c', val: 0}, {op: '+'}}
	g.peephole()
	if len(g.code) != 1 || g.code[0].op != 'v' {
		t.Errorf("x+0 not removed: %+v", g.code)
	}
	// push v; push 1; *  => push v
	g.code = []gccInst{{op: 'v'}, {op: 'c', val: 1}, {op: '*'}}
	g.peephole()
	if len(g.code) != 1 || g.code[0].op != 'v' {
		t.Errorf("x*1 not removed: %+v", g.code)
	}
	// push v; push 1; +  must stay (not a no-op)
	g.code = []gccInst{{op: 'v'}, {op: 'c', val: 1}, {op: '+'}}
	g.peephole()
	if len(g.code) != 3 {
		t.Errorf("x+1 wrongly removed: %+v", g.code)
	}
}

func TestPeepholeDivByZeroSafe(t *testing.T) {
	g := testGCCState()
	g.code = []gccInst{{op: 'c', val: 7}, {op: 'c', val: 0}, {op: '/'}}
	g.peephole()
	if len(g.code) != 1 || g.code[0].val != 0 {
		t.Errorf("7/0 fold: %+v", g.code)
	}
}

func TestRegallocNoOverlappingAssignment(t *testing.T) {
	g := testGCCState()
	// Five overlapping intervals with 4 registers: one spill or reuse,
	// and no two *live-overlapping* intervals may share a register.
	g.ivals = []gccInterval{
		{start: 0, end: 10}, {start: 1, end: 9}, {start: 2, end: 8},
		{start: 3, end: 7}, {start: 4, end: 6},
	}
	g.regalloc(4)
	assigned := 0
	for i, a := range g.ivals {
		if a.reg == -1 {
			continue
		}
		assigned++
		for j, b := range g.ivals {
			if i == j || b.reg == -1 || a.reg != b.reg {
				continue
			}
			if a.start < b.end && b.start < a.end {
				t.Fatalf("intervals %d and %d overlap but share register %d", i, j, a.reg)
			}
		}
	}
	if assigned < 4 {
		t.Errorf("only %d intervals got registers", assigned)
	}
}

func TestRegallocReusesFreedRegisters(t *testing.T) {
	g := testGCCState()
	// Two disjoint phases of 3 intervals each: 3 registers suffice.
	g.ivals = []gccInterval{
		{start: 0, end: 2}, {start: 0, end: 2}, {start: 0, end: 2},
		{start: 3, end: 5}, {start: 3, end: 5}, {start: 3, end: 5},
	}
	g.regalloc(3)
	for i, iv := range g.ivals {
		if iv.reg == -1 {
			t.Errorf("interval %d spilled despite free registers", i)
		}
	}
}

func TestM88kProgramsHalt(t *testing.T) {
	// Static sanity for the simulated binaries: every branch/jump target
	// is in range and each program contains a halt.
	for name, prog := range map[string][]m88kInst{
		"sort": m88kProgram(24),
		"swap": m88kSwapProgram(24),
		"copy": m88kCopyProgram(24),
	} {
		halts := 0
		for i, inst := range prog {
			switch inst.op {
			case opHalt:
				halts++
			case opJmp, opBLT, opBGE, opBNE:
				if inst.imm < 0 || inst.imm >= len(prog) {
					t.Errorf("%s[%d]: target %d out of range", name, i, inst.imm)
				}
			}
		}
		if halts == 0 {
			t.Errorf("%s: no halt instruction", name)
		}
	}
}

func TestBTreeOrderedScan(t *testing.T) {
	s := newVortexSites()
	bt := newVortexBTree(testTracer(), s)
	// Insert a permuted key set (exercises the non-append descent path
	// and splits), then verify a full scan yields sorted output.
	rng := newPRNG(0xB7EE)
	want := map[uint32]uint8{}
	for i := 0; i < 2000; i++ {
		id := rng.next()%100000 + 1
		if _, dup := want[id]; dup {
			continue
		}
		kind := uint8(rng.intn(3))
		want[id] = kind
		bt.insert(id, kind)
	}
	var got []uint32
	bt.scan(0, ^uint32(0), func(id uint32, kind uint8) {
		got = append(got, id)
		if want[id] != kind {
			t.Fatalf("id %d: kind %d, want %d", id, kind, want[id])
		}
	})
	if len(got) != len(want) {
		t.Fatalf("scan returned %d keys, want %d", len(got), len(want))
	}
	for i := 1; i < len(got); i++ {
		if got[i] <= got[i-1] {
			t.Fatalf("scan not sorted at %d: %d <= %d", i, got[i], got[i-1])
		}
	}
	if h := bt.height(); h < 3 {
		t.Errorf("tree height %d suspiciously small for %d keys", h, len(want))
	}
}

func TestBTreeRangeScanBounds(t *testing.T) {
	s := newVortexSites()
	bt := newVortexBTree(testTracer(), s)
	for id := uint32(1); id <= 500; id++ {
		bt.insert(id, 0)
	}
	var got []uint32
	bt.scan(100, 199, func(id uint32, _ uint8) { got = append(got, id) })
	if len(got) != 100 || got[0] != 100 || got[99] != 199 {
		t.Fatalf("range scan [100,199]: %d keys, first %d, last %d",
			len(got), got[0], got[len(got)-1])
	}
}

func TestRxMatch(t *testing.T) {
	s := newPerlSites()
	tr := testTracer()
	cases := []struct {
		pat, str string
		want     bool
	}{
		{"abc", "abc", true},
		{"abc", "abd", false},
		{"abc", "ab", false},
		{"a.c", "abc", true},
		{"a.c", "axc", true},
		{"a.c", "ac", false},
		{"a*", "", true},
		{"a*", "aaaa", true},
		{"a*b", "aaab", true},
		{"a*b", "b", true},
		{"a*b", "aaac", false},
		{".*", "anything", true},
		{".*x", "aax", true},
		{".*x", "aay", false},
		{"e.*", "elephant", true},
		{"", "", true},
		{"", "a", false},
	}
	for _, c := range cases {
		if got := rxMatch(tr, s, c.pat, c.str); got != c.want {
			t.Errorf("rxMatch(%q, %q) = %v, want %v", c.pat, c.str, got, c.want)
		}
	}
}
