package corpus

import (
	"bytes"
	"encoding/binary"
	"os"
	"runtime"
	"testing"

	"branchcorr/internal/bp"
	"branchcorr/internal/obs"
	"branchcorr/internal/sim"
	"branchcorr/internal/trace"
	"branchcorr/internal/workloads"
)

// TestRoundTripAllWorkloads is the acceptance gate: for every workload,
// store → load → simulate must equal generate → simulate exactly, and
// the loaded trace must be record-identical to the generated one.
func TestRoundTripAllWorkloads(t *testing.T) {
	const n = 4_000
	st, err := Open(t.TempDir(), obs.New())
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads.All() {
		tr := w.Generate(n)
		key := Key(w.Name(), n, "test-rev")
		if err := st.PutPacked(key, tr.Packed()); err != nil {
			t.Fatalf("%s: put: %v", w.Name(), err)
		}
		got, err := st.LoadTrace(key)
		if err != nil {
			t.Fatalf("%s: load: %v", w.Name(), err)
		}
		if got.Name() != tr.Name() || got.Len() != tr.Len() {
			t.Fatalf("%s: loaded %q/%d, want %q/%d", w.Name(), got.Name(), got.Len(), tr.Name(), tr.Len())
		}
		for i := 0; i < tr.Len(); i++ {
			if got.At(i) != tr.At(i) {
				t.Fatalf("%s: record %d = %v, want %v", w.Name(), i, got.At(i), tr.At(i))
			}
		}
		mk := func() []bp.Predictor {
			p, err := bp.Parse("gshare:12", bp.Env{})
			if err != nil {
				t.Fatal(err)
			}
			return []bp.Predictor{p}
		}
		want := sim.Simulate(tr, mk(), sim.Options{}).Results[0]
		have := sim.Simulate(got, mk(), sim.Options{}).Results[0]
		if want.Correct != have.Correct || want.Total != have.Total {
			t.Errorf("%s: stored-trace sim %d/%d, generated %d/%d",
				w.Name(), have.Correct, have.Total, want.Correct, want.Total)
		}
	}
}

// TestGetTraceHitMiss pins the caching contract: first call generates
// and stores (miss), second call loads without generating (hit).
func TestGetTraceHitMiss(t *testing.T) {
	reg := obs.New()
	st, err := Open(t.TempDir(), reg)
	if err != nil {
		t.Fatal(err)
	}
	w, err := workloads.ByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	key := Key("gcc", 2000, "r1")
	gens := 0
	gen := func() *trace.Trace { gens++; return w.Generate(2000) }

	first, err := st.GetTrace(key, gen)
	if err != nil {
		t.Fatal(err)
	}
	second, err := st.GetTrace(key, gen)
	if err != nil {
		t.Fatal(err)
	}
	if gens != 1 {
		t.Errorf("generator ran %d times, want 1", gens)
	}
	if h, m := reg.Counter("corpus.hits").Value(), reg.Counter("corpus.misses").Value(); h != 1 || m != 1 {
		t.Errorf("hits=%d misses=%d, want 1/1", h, m)
	}
	for i := 0; i < first.Len(); i++ {
		if first.At(i) != second.At(i) {
			t.Fatalf("record %d differs between generated and loaded trace", i)
		}
	}
	// A different key (e.g. bumped revision) must regenerate.
	if _, err := st.GetTrace(Key("gcc", 2000, "r2"), gen); err != nil {
		t.Fatal(err)
	}
	if gens != 2 {
		t.Errorf("revision bump did not regenerate (gens=%d)", gens)
	}
}

// TestGetTraceCorruptEntry: a present-but-garbage entry is regenerated,
// not a fatal error.
func TestGetTraceCorruptEntry(t *testing.T) {
	reg := obs.New()
	st, err := Open(t.TempDir(), reg)
	if err != nil {
		t.Fatal(err)
	}
	key := Key("x", 100, "r")
	if err := writeFile(st.Path(key), []byte("not a corpus entry")); err != nil {
		t.Fatal(err)
	}
	tr, err := st.GetTrace(key, func() *trace.Trace {
		out := trace.New("x", 0)
		out.Append(trace.Record{PC: 0x40, Taken: true})
		return out
	})
	if err != nil || tr.Len() != 1 {
		t.Fatalf("corrupt entry not recovered: %v", err)
	}
	if reg.Counter("corpus.errors").Value() != 1 {
		t.Error("corpus.errors not counted")
	}
	// The overwritten entry now loads cleanly.
	if _, err := st.LoadTrace(key); err != nil {
		t.Errorf("rewritten entry fails to load: %v", err)
	}
}

// TestReaderStreamsStoredEntry: a stored entry read through NewReader streams
// its chunks as a trace.BlockSource that reconstructs the stored records
// exactly and drives the streaming simulator to the in-memory result.
func TestReaderStreamsStoredEntry(t *testing.T) {
	st, err := Open(t.TempDir(), obs.New())
	if err != nil {
		t.Fatal(err)
	}
	w, err := workloads.ByName("perl")
	if err != nil {
		t.Fatal(err)
	}
	tr := w.Generate(5_000)
	key := Key("perl", 5_000, "r")
	if err := st.PutPacked(key, tr.Packed()); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(st.Path(key))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	src, err := NewReader(f)
	if err != nil {
		t.Fatal(err)
	}
	if src.Remaining() != tr.Len() || src.Name() != tr.Name() {
		t.Fatalf("stream header: %d records %q", src.Remaining(), src.Name())
	}
	mk := func() []bp.Predictor {
		p, err := bp.Parse("pas:8,8,2", bp.Env{})
		if err != nil {
			t.Fatal(err)
		}
		return []bp.Predictor{p}
	}
	want := sim.Simulate(tr, mk(), sim.Options{})
	got, err := sim.SimulateBlocks(src, mk(), sim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if want.Results[0].Correct != got.Results[0].Correct || want.Results[0].Total != got.Results[0].Total {
		t.Errorf("streamed sim %d/%d, want %d/%d",
			got.Results[0].Correct, got.Results[0].Total, want.Results[0].Correct, want.Results[0].Total)
	}
}

// TestEncodeDecodeCanonical: decode∘encode is the identity on encoded
// bytes, including the empty trace, at several chunk lengths.
func TestEncodeDecodeCanonical(t *testing.T) {
	traces := []*trace.Trace{trace.New("empty", 0)}
	if w, err := workloads.ByName("compress"); err == nil {
		traces = append(traces, w.Generate(3_000))
	}
	for _, tr := range traces {
		for _, chunkLen := range []int{1, 63, 64, 65, 1000, DefaultChunkLen} {
			var buf bytes.Buffer
			if err := Encode(&buf, tr.Packed(), chunkLen); err != nil {
				t.Fatal(err)
			}
			pt, storedChunk, err := Decode(bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatalf("%s chunk %d: decode: %v", tr.Name(), chunkLen, err)
			}
			if storedChunk != chunkLen {
				t.Fatalf("stored chunk %d, want %d", storedChunk, chunkLen)
			}
			var buf2 bytes.Buffer
			if err := Encode(&buf2, pt, storedChunk); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
				t.Fatalf("%s chunk %d: re-encode differs (%d vs %d bytes)",
					tr.Name(), chunkLen, buf.Len(), buf2.Len())
			}
		}
	}
}

// TestDecodeRejectsMalformed feeds systematically malformed variants of
// a valid encoding to the decoder; each must be rejected.
func TestDecodeRejectsMalformed(t *testing.T) {
	tr := trace.New("m", 0)
	for i := 0; i < 200; i++ {
		tr.Append(trace.Record{PC: trace.Addr(0x100 + 4*(i%7)), Taken: i%3 == 0, Backward: i%7 == 0})
	}
	var buf bytes.Buffer
	if err := Encode(&buf, tr.Packed(), 64); err != nil {
		t.Fatal(err)
	}
	valid := buf.Bytes()

	mutate := func(name string, f func(b []byte) []byte) {
		b := append([]byte(nil), valid...)
		b = f(b)
		if _, _, err := Decode(bytes.NewReader(b)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	mutate("bad magic", func(b []byte) []byte { b[0] = 'X'; return b })
	mutate("bad version", func(b []byte) []byte { b[4] = 9; return b })
	mutate("truncated", func(b []byte) []byte { return b[:len(b)/2] })
	mutate("trailing garbage", func(b []byte) []byte { return append(b, 0) })
	mutate("huge record count", func(b []byte) []byte {
		// recordCount sits after magic+version+nameLen+name ("m" = 1 byte).
		binary.LittleEndian.PutUint64(b[13:], 1<<60)
		return b
	})
	mutate("huge branch count", func(b []byte) []byte {
		binary.LittleEndian.PutUint64(b[21:], 1<<60)
		return b
	})
	mutate("zero chunk length", func(b []byte) []byte {
		binary.LittleEndian.PutUint32(b[29:], 0)
		return b
	})
	mutate("chunk count mismatch", func(b []byte) []byte {
		binary.LittleEndian.PutUint32(b[33:], 99)
		return b
	})
}

// TestDecodeHugeClaimsBounded is the decoder's OOM audit: headers
// claiming exabyte-scale tables on tiny inputs must fail fast, not
// allocate proportionally to the claim. (Allocation is bounded by
// batchRecords regardless of the claimed counts.)
func TestDecodeHugeClaimsBounded(t *testing.T) {
	var b bytes.Buffer
	b.Write(magic[:])
	var sc [8]byte
	u32 := func(v uint32) { binary.LittleEndian.PutUint32(sc[:4], v); b.Write(sc[:4]) }
	u64 := func(v uint64) { binary.LittleEndian.PutUint64(sc[:8], v); b.Write(sc[:8]) }
	u32(formatVersion)
	u32(1)
	b.WriteByte('h')
	u64(1 << 62) // records
	u64(1 << 61) // branches
	u32(1 << 20) // chunk length
	u32(1 << 31) // chunk count (fails consistency anyway; belt and braces)
	if _, _, err := Decode(bytes.NewReader(b.Bytes())); err == nil {
		t.Fatal("decoder accepted exabyte-scale header on a 41-byte input")
	}
}

// TestDecodeHugeChunkClaimBounded pins the other half of the OOM audit:
// a consistent header demanding the maximum chunk length must not cause
// a chunk-sized column allocation before the bytes are present. The
// decoder used to preallocate ids/bitset capacity from the claimed chunk
// size (64MB for maxChunkLen) on a ~50-byte input; allocation must
// instead track bytes actually read.
func TestDecodeHugeChunkClaimBounded(t *testing.T) {
	var b bytes.Buffer
	b.Write(magic[:])
	var sc [8]byte
	u32 := func(v uint32) { binary.LittleEndian.PutUint32(sc[:4], v); b.Write(sc[:4]) }
	u64 := func(v uint64) { binary.LittleEndian.PutUint64(sc[:8], v); b.Write(sc[:8]) }
	u32(formatVersion)
	u32(1)
	b.WriteByte('h')
	u64(maxChunkLen) // records
	u64(1)           // branches
	u32(maxChunkLen) // chunk length: one maximal chunk, fully consistent
	u32(1)           // chunk count
	u32(0x40)        // intern entry for dense ID 0
	u32(maxChunkLen) // chunk header: claims 2^24 records, then EOF
	in := b.Bytes()

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _, err := Decode(bytes.NewReader(in))
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("decoder accepted a truncated maximal chunk")
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 4<<20 {
		t.Errorf("decoding a %d-byte stream claiming a %d-record chunk allocated %d bytes",
			len(in), maxChunkLen, alloc)
	}
}

func writeFile(path string, data []byte) error {
	return os.WriteFile(path, data, 0o644)
}
