package trace

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
)

// drainSource reconstructs the full record sequence from a block source,
// checking the per-block invariants (intern-table coverage, bitset
// sizing) along the way.
func drainSource(t *testing.T, src BlockSource) []Record {
	t.Helper()
	var recs []Record
	for {
		blk, ok := src.Next()
		if !ok {
			break
		}
		addrs := src.Addrs()
		if want := (blk.Len() + 63) / 64; len(blk.Taken) != want || len(blk.Back) != want {
			t.Fatalf("block bitsets sized %d/%d words, want %d for %d records",
				len(blk.Taken), len(blk.Back), want, blk.Len())
		}
		for i, id := range blk.IDs {
			if int(id) >= len(addrs) {
				t.Fatalf("block record %d has ID %d beyond intern table of %d", i, id, len(addrs))
			}
			recs = append(recs, Record{
				PC:       addrs[id],
				Taken:    blk.Taken1(i) != 0,
				Backward: blk.Back1(i) != 0,
			})
		}
	}
	if err := src.Err(); err != nil {
		t.Fatalf("source error: %v", err)
	}
	return recs
}

func localityTrace(name string, n int, seed int64) *Trace {
	return FromRecords(name, localityRecords(n, seed))
}

// localityRecords draws n records over 64 sites with the short PC
// strides and repeats of real branch traces.
func localityRecords(n int, seed int64) []Record {
	rng := rand.New(rand.NewSource(seed))
	recs := make([]Record, n)
	pc := Addr(0x1000)
	for i := range recs {
		switch rng.Intn(4) {
		case 0:
			pc = Addr(0x1000 + 4*rng.Intn(64))
		case 1:
			// repeat previous PC (exercises samePC encoding)
		default:
			pc += 4
		}
		recs[i] = Record{PC: pc, Taken: rng.Intn(3) != 0, Backward: rng.Intn(5) == 0}
	}
	return recs
}

// chunkCases returns the adversarial chunk lengths for a trace of n
// records: 1, the chunk straddles (cs-1, cs, cs+1 around both the word
// size and n itself), and larger-than-trace.
func chunkCases(n int) []int {
	cases := []int{1, 63, 64, 65, DefaultBlockLen}
	if n > 1 {
		cases = append(cases, n-1)
	}
	if n > 0 {
		cases = append(cases, n, n+1)
	}
	return cases
}

func TestPackedSourceMatchesRecords(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 65, 128, 1000} {
		tr := localityTrace("ps", n, int64(n)+1)
		pt := tr.Packed()
		for _, chunk := range chunkCases(n) {
			src := pt.Blocks(chunk)
			if src.Name() != "ps" {
				t.Fatalf("Name = %q", src.Name())
			}
			got := drainSource(t, src)
			if len(got) != n {
				t.Fatalf("n=%d chunk=%d: drained %d records", n, chunk, len(got))
			}
			for i, r := range got {
				if r != tr.At(i) {
					t.Fatalf("n=%d chunk=%d: record %d = %v, want %v", n, chunk, i, r, tr.At(i))
				}
			}
		}
	}
}

// TestPackedSourceIDsMatchPack pins the dense-ID assignment: the
// streamed IDs must be byte-for-byte the packed column, chunk by chunk.
func TestPackedSourceIDsMatchPack(t *testing.T) {
	tr := localityTrace("ids", 777, 7)
	pt := tr.Packed()
	for _, chunk := range chunkCases(tr.Len()) {
		src := pt.Blocks(chunk)
		pos := 0
		for {
			blk, ok := src.Next()
			if !ok {
				break
			}
			for i, id := range blk.IDs {
				if id != pt.ID(pos+i) {
					t.Fatalf("chunk=%d: record %d ID %d != packed %d", chunk, pos+i, id, pt.ID(pos+i))
				}
			}
			pos += blk.Len()
		}
	}
}

func TestReadBlocksMatchesPack(t *testing.T) {
	for _, n := range []int{0, 1, 64, 65, 1000} {
		tr := localityTrace("rb", n, int64(n)+13)
		var buf bytes.Buffer
		if err := tr.Write(&buf); err != nil {
			t.Fatal(err)
		}
		pt := tr.Packed()
		for _, chunk := range chunkCases(n) {
			br, err := ReadBlocks(bytes.NewReader(buf.Bytes()), chunk)
			if err != nil {
				t.Fatal(err)
			}
			if br.Name() != "rb" {
				t.Fatalf("Name = %q", br.Name())
			}
			if br.Remaining() != n {
				t.Fatalf("Remaining = %d, want %d", br.Remaining(), n)
			}
			got := drainSource(t, br)
			if len(got) != n {
				t.Fatalf("n=%d chunk=%d: drained %d records", n, chunk, len(got))
			}
			for i, r := range got {
				if r != tr.At(i) {
					t.Fatalf("n=%d chunk=%d: record %d = %v, want %v", n, chunk, i, r, tr.At(i))
				}
			}
			// The incremental intern table must end up identical to Pack's.
			addrs := br.Addrs()
			if len(addrs) != pt.NumBranches() {
				t.Fatalf("intern table has %d entries, want %d", len(addrs), pt.NumBranches())
			}
			for id, a := range addrs {
				if a != pt.AddrOf(int32(id)) {
					t.Fatalf("intern[%d] = %#x, want %#x", id, a, pt.AddrOf(int32(id)))
				}
			}
			if br.Remaining() != 0 {
				t.Errorf("Remaining after EOF = %d", br.Remaining())
			}
			if _, ok := br.Next(); ok {
				t.Error("Next after EOF should be false")
			}
		}
	}
}

// The TestScanner* tests pin the streaming decoder, ReadBlocks: it
// must agree with Read record for record and reject every malformed or
// truncated stream Read rejects, one chunk at a time.

// drainErr reads br to the end and returns its error, checking that a
// finished source stays finished.
func drainErr(t *testing.T, br *BlockReader) error {
	t.Helper()
	for {
		if _, ok := br.Next(); !ok {
			break
		}
	}
	if _, ok := br.Next(); ok {
		t.Error("Next after the end should keep returning false")
	}
	return br.Err()
}

func TestScannerMatchesRead(t *testing.T) {
	tr := localityTrace("scan", 5000, 17)
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatal(err)
	}
	want, err := Read(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	for _, chunk := range []int{1, 64, 1000, DefaultBlockLen} {
		br, err := ReadBlocks(bytes.NewReader(buf.Bytes()), chunk)
		if err != nil {
			t.Fatal(err)
		}
		if br.Name() != want.Name() {
			t.Errorf("chunk=%d: Name = %q, want %q", chunk, br.Name(), want.Name())
		}
		if br.Remaining() != want.Len() {
			t.Errorf("chunk=%d: Remaining = %d, want %d", chunk, br.Remaining(), want.Len())
		}
		got := drainSource(t, br)
		if len(got) != want.Len() {
			t.Fatalf("chunk=%d: streamed %d records, Read decoded %d", chunk, len(got), want.Len())
		}
		for i, r := range got {
			if r != want.At(i) {
				t.Fatalf("chunk=%d: record %d: %v != %v", chunk, i, r, want.At(i))
			}
		}
		if br.Remaining() != 0 {
			t.Errorf("chunk=%d: Remaining after EOF = %d", chunk, br.Remaining())
		}
	}
}

func TestScannerBadMagic(t *testing.T) {
	if _, err := ReadBlocks(strings.NewReader("XXXXXXXXXX"), 8); err != ErrBadMagic {
		t.Errorf("err = %v, want ErrBadMagic", err)
	}
}

func TestScannerHeaderErrors(t *testing.T) {
	cases := map[string][]byte{
		"empty":            nil,
		"short magic":      []byte("BT"),
		"bad magic":        []byte("XXXXXXXX"),
		"missing name len": magic[:],
		"huge name len":    newStream().uvarint(maxNameLen + 1).bytes(),
		"truncated name":   newStream().uvarint(10).raw('a', 'b').bytes(),
		"missing count":    newStream().name("n").bytes(),
	}
	for name, data := range cases {
		if _, err := Read(bytes.NewReader(data)); err == nil {
			t.Errorf("%s: Read succeeded", name)
		}
		if _, err := ReadBlocks(bytes.NewReader(data), 8); err == nil {
			t.Errorf("%s: ReadBlocks succeeded", name)
		}
	}
}

func TestScannerRejectsNonCanonical(t *testing.T) {
	reserved := newStream().name("s").uvarint(1).uvarint(1 << 4).bytes()
	zero := newStream().name("s").uvarint(1).uvarint(0).raw(0x00).bytes()
	for name, data := range map[string][]byte{"reserved bits": reserved, "zero delta": zero} {
		br, err := ReadBlocks(bytes.NewReader(data), 8)
		if err != nil {
			t.Fatalf("%s: header: %v", name, err)
		}
		if drainErr(t, br) == nil {
			t.Errorf("%s: ReadBlocks accepted non-canonical stream", name)
		}
	}
}

// TestScannerTruncated cuts a stream at every byte: each proper prefix
// must fail, in the header (ReadBlocks) or in the records (Err), never
// decode as a shorter trace.
func TestScannerTruncated(t *testing.T) {
	tr := localityTrace("cut", 200, 5)
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	for cut := 0; cut < len(data); cut++ {
		br, err := ReadBlocks(bytes.NewReader(data[:cut]), 16)
		if err != nil {
			continue
		}
		if drainErr(t, br) == nil {
			t.Fatalf("prefix of %d/%d bytes decoded without error", cut, len(data))
		}
	}
}

// TestScannerHugeCountBounded: a 15-byte stream claiming 2^60 records
// surfaces as a truncation error, not an endless read.
func TestScannerHugeCountBounded(t *testing.T) {
	data := newStream().name("x").uvarint(1 << 60).bytes()
	br, err := ReadBlocks(bytes.NewReader(data), 64)
	if err != nil {
		t.Fatal(err)
	}
	if drainErr(t, br) == nil {
		t.Error("ReadBlocks should surface the truncation")
	}
}

func TestReadBlocksTruncated(t *testing.T) {
	tr := localityTrace("trunc", 500, 3)
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	br, err := ReadBlocks(bytes.NewReader(data[:len(data)/2]), 64)
	if err != nil {
		t.Fatal(err)
	}
	if drainErr(t, br) == nil {
		t.Error("truncated stream should surface an error")
	}
}

// TestInterleaveStreaming covers the Interleave + streaming interaction:
// a context-switched merge streamed at chunk boundaries falling at 0, 1,
// the switch quantum, and quantum±1 must reconstruct the merged record
// sequence exactly.
func TestInterleaveStreaming(t *testing.T) {
	a := localityTrace("a", 300, 1)
	b := localityTrace("b", 120, 2)
	const quantum = 64
	merged := Interleave("mix", quantum, a, b)
	pt := merged.Packed()
	for _, chunk := range []int{1, quantum - 1, quantum, quantum + 1, merged.Len()} {
		got := drainSource(t, pt.Blocks(chunk))
		if len(got) != merged.Len() {
			t.Fatalf("chunk=%d: drained %d records, want %d", chunk, len(got), merged.Len())
		}
		for i, r := range got {
			if r != merged.At(i) {
				t.Fatalf("chunk=%d: record %d = %v, want %v", chunk, i, r, merged.At(i))
			}
		}
	}
	// And through the on-disk decoder, at the same boundary chunk sizes.
	var buf bytes.Buffer
	if err := merged.Write(&buf); err != nil {
		t.Fatal(err)
	}
	for _, chunk := range []int{1, quantum, quantum + 1} {
		br, err := ReadBlocks(bytes.NewReader(buf.Bytes()), chunk)
		if err != nil {
			t.Fatal(err)
		}
		got := drainSource(t, br)
		for i, r := range got {
			if r != merged.At(i) {
				t.Fatalf("disk chunk=%d: record %d mismatch", chunk, i)
			}
		}
	}
}

func TestInterleaveEmptyInput(t *testing.T) {
	if got := Interleave("none", 4); got.Len() != 0 || got.Name() != "none" {
		t.Errorf("Interleave() = %d records, name %q", got.Len(), got.Name())
	}
	got := drainSource(t, Interleave("none", 4).Packed().Blocks(8))
	if len(got) != 0 {
		t.Errorf("streaming an empty interleave yielded %d records", len(got))
	}
}

func TestBlockBytes(t *testing.T) {
	blk := Block{IDs: make([]int32, 100), Taken: make([]uint64, 2), Back: make([]uint64, 2)}
	if got := blk.Bytes(); got != 100*4+2*8+2*8 {
		t.Errorf("Bytes = %d", got)
	}
}

func TestAssemblePackedRoundTrip(t *testing.T) {
	tr := localityTrace("as", 257, 9)
	pt := tr.Packed()
	got, err := AssemblePacked(pt.Name(), pt.Addrs(), pt.IDs(), pt.TakenWords(), pt.BackwardWords())
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != pt.Len() || got.NumBranches() != pt.NumBranches() {
		t.Fatalf("assembled %d/%d, want %d/%d", got.Len(), got.NumBranches(), pt.Len(), pt.NumBranches())
	}
	for i := 0; i < pt.Len(); i++ {
		if got.Record(i) != pt.Record(i) {
			t.Fatalf("record %d mismatch", i)
		}
	}
	for id := int32(0); int(id) < pt.NumBranches(); id++ {
		if got.Counts()[id] != pt.Counts()[id] {
			t.Fatalf("counts[%d] = %d, want %d", id, got.Counts()[id], pt.Counts()[id])
		}
	}
}

func TestAssemblePackedRejectsMalformed(t *testing.T) {
	addrs := []Addr{0x10, 0x20}
	ids := []int32{0, 1, 0}
	taken := []uint64{0b101}
	back := []uint64{0}
	if _, err := AssemblePacked("ok", addrs, ids, taken, back); err != nil {
		t.Fatalf("well-formed columns rejected: %v", err)
	}
	cases := []struct {
		name  string
		addrs []Addr
		ids   []int32
		taken []uint64
		back  []uint64
	}{
		{"bitset too short", addrs, ids, nil, back},
		{"padding bits set", addrs, ids, []uint64{1 << 40}, back},
		{"id out of range", addrs, []int32{0, 2, 0}, taken, back},
		{"negative id", addrs, []int32{0, -1, 0}, taken, back},
		{"not first-appearance", addrs, []int32{1, 0, 0}, taken, back},
		{"unused intern entry", addrs, []int32{0, 0, 0}, taken, back},
		{"duplicate intern entry", []Addr{0x10, 0x10}, ids, taken, back},
	}
	for _, c := range cases {
		if _, err := AssemblePacked(c.name, c.addrs, c.ids, c.taken, c.back); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}

// TestFromPackedSeedsMemo pins that FromPacked wraps the view it is
// given: Packed returns that view itself, and appending to the trace
// leaves the view as it was.
func TestFromPackedSeedsMemo(t *testing.T) {
	recs := localityRecords(100, 4)
	ref := referencePack("fp", recs)
	pt, err := AssemblePacked(ref.name, ref.addrs, ref.ids, ref.taken, ref.back)
	if err != nil {
		t.Fatal(err)
	}
	got := FromPacked(pt)
	if got.Len() != len(recs) || got.Name() != "fp" {
		t.Fatalf("FromPacked: %d records, name %q", got.Len(), got.Name())
	}
	if got.Packed() != pt {
		t.Error("FromPacked should seed the Packed memo with the given view")
	}
	extra := Record{PC: 0x9000, Taken: true, Backward: true}
	got.Append(extra)
	if d := packedDiff(pt, referencePack("fp", recs)); d != "" {
		t.Errorf("wrapped view changed after Append: %s", d)
	}
	if d := packedDiff(got.Packed(), referencePack("fp", append(recs, extra))); d != "" {
		t.Errorf("view after Append: %s", d)
	}
}
