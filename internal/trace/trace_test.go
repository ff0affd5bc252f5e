package trace

import (
	"bytes"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestRecordString(t *testing.T) {
	cases := []struct {
		r    Record
		want string
	}{
		{Record{PC: 0x4000, Taken: true}, "0x4000 T"},
		{Record{PC: 0x4010, Taken: false}, "0x4010 N"},
		{Record{PC: 0x10, Taken: false, Backward: true}, "0x10 N back"},
		{Record{PC: 0x10, Taken: true, Backward: true}, "0x10 T back"},
	}
	for _, c := range cases {
		if got := c.r.String(); got != c.want {
			t.Errorf("String(%+v) = %q, want %q", c.r, got, c.want)
		}
	}
}

func TestTraceBasics(t *testing.T) {
	tr := New("x", 4)
	if tr.Len() != 0 {
		t.Fatalf("new trace Len = %d, want 0", tr.Len())
	}
	tr.Append(Record{PC: 1, Taken: true})
	tr.Append(Record{PC: 2})
	if tr.Len() != 2 {
		t.Fatalf("Len = %d, want 2", tr.Len())
	}
	if tr.At(0).PC != 1 || !tr.At(0).Taken {
		t.Errorf("At(0) = %+v", tr.At(0))
	}
	if tr.Name() != "x" {
		t.Errorf("Name = %q", tr.Name())
	}
}

// TestFromRecordsCopies pins that a trace holds its own columns: it
// does not alias the record slice it was built from.
func TestFromRecordsCopies(t *testing.T) {
	recs := []Record{{PC: 7, Taken: true}}
	tr := FromRecords("w", recs)
	recs[0] = Record{PC: 9}
	if tr.Len() != 1 || tr.At(0) != (Record{PC: 7, Taken: true}) {
		t.Fatalf("FromRecords mismatch: %+v", records(tr))
	}
}

func roundTrip(t *testing.T, tr *Trace) *Trace {
	t.Helper()
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatalf("Write: %v", err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	return got
}

func TestEncodingRoundTripEmpty(t *testing.T) {
	got := roundTrip(t, New("empty", 0))
	if got.Name() != "empty" || got.Len() != 0 {
		t.Errorf("round trip: name=%q len=%d", got.Name(), got.Len())
	}
}

func TestEncodingRoundTripSmall(t *testing.T) {
	tr := New("small", 0)
	tr.Append(Record{PC: 0x4000, Taken: true})
	tr.Append(Record{PC: 0x4000, Taken: false})
	tr.Append(Record{PC: 0x3ff0, Taken: true, Backward: true}) // negative delta
	tr.Append(Record{PC: 0xffffffff, Taken: false})            // large positive delta
	got := roundTrip(t, tr)
	if !reflect.DeepEqual(records(got), records(tr)) {
		t.Errorf("round trip mismatch:\n got %v\nwant %v", records(got), records(tr))
	}
}

func TestEncodingRoundTripRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	tr := New("rand", 0)
	pcs := []Addr{0x100, 0x104, 0x2000, 0xdeadbeef}
	for i := 0; i < 5000; i++ {
		tr.Append(Record{
			PC:       pcs[rng.Intn(len(pcs))],
			Taken:    rng.Intn(2) == 0,
			Backward: rng.Intn(4) == 0,
		})
	}
	got := roundTrip(t, tr)
	if got.Name() != "rand" {
		t.Fatalf("name = %q", got.Name())
	}
	if !reflect.DeepEqual(records(got), records(tr)) {
		t.Errorf("round trip mismatch on random trace")
	}
}

func TestEncodingCompactness(t *testing.T) {
	// A loop-like trace (same PCs repeating) should cost well under 2
	// bytes per record.
	tr := New("loop", 0)
	for i := 0; i < 10000; i++ {
		tr.Append(Record{PC: 0x4000, Taken: i%10 != 9, Backward: true})
	}
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatal(err)
	}
	if perRec := float64(buf.Len()) / 10000; perRec > 2 {
		t.Errorf("encoding too large: %.2f bytes/record", perRec)
	}
}

func TestReadBadMagic(t *testing.T) {
	_, err := Read(strings.NewReader("NOPE....."))
	if err != ErrBadMagic {
		t.Errorf("Read bad magic: err = %v, want ErrBadMagic", err)
	}
}

func TestReadTruncated(t *testing.T) {
	tr := New("x", 0)
	for i := 0; i < 100; i++ {
		tr.Append(Record{PC: Addr(i * 4), Taken: true})
	}
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for _, cut := range []int{0, 3, 5, len(full) / 2, len(full) - 1} {
		if _, err := Read(bytes.NewReader(full[:cut])); err == nil {
			t.Errorf("Read(truncated at %d) succeeded, want error", cut)
		}
	}
}

func TestZigzagProperty(t *testing.T) {
	f := func(d int64) bool { return unzigzag(zigzag(d)) == d }
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestEncodingRoundTripProperty is a property-based check that any record
// sequence survives encode/decode.
func TestEncodingRoundTripProperty(t *testing.T) {
	f := func(pcs []uint32, bits []byte) bool {
		tr := New("q", len(pcs))
		for i, pc := range pcs {
			var b byte
			if i < len(bits) {
				b = bits[i]
			}
			tr.Append(Record{PC: Addr(pc), Taken: b&1 != 0, Backward: b&2 != 0})
		}
		var buf bytes.Buffer
		if err := tr.Write(&buf); err != nil {
			return false
		}
		got, err := Read(&buf)
		if err != nil {
			return false
		}
		if got.Len() != tr.Len() {
			return false
		}
		for i := range records(tr) {
			if got.At(i) != tr.At(i) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestSummarize(t *testing.T) {
	tr := New("s", 0)
	// Site A: 3 taken, 1 not-taken; backward.
	for _, taken := range []bool{true, true, false, true} {
		tr.Append(Record{PC: 0xA0, Taken: taken, Backward: true})
	}
	// Site B: 2 not-taken.
	tr.Append(Record{PC: 0xB0, Taken: false})
	tr.Append(Record{PC: 0xB0, Taken: false})
	st := Summarize(tr)
	if st.Dynamic != 6 || st.Static != 2 || st.Taken != 3 {
		t.Fatalf("Stats = %+v", st)
	}
	if st.BackwardSites != 1 {
		t.Errorf("BackwardSites = %d, want 1", st.BackwardSites)
	}
	a := st.Sites[0xA0]
	if a.Count != 4 || a.Taken != 3 || !a.Backward {
		t.Errorf("site A = %+v", a)
	}
	if got := a.Bias(); got != 0.75 {
		t.Errorf("site A bias = %v, want 0.75", got)
	}
	if !a.MajorityTaken() {
		t.Error("site A majority should be taken")
	}
	b := st.Sites[0xB0]
	if b.MajorityTaken() {
		t.Error("site B majority should be not-taken")
	}
	if b.NotTaken() != 2 {
		t.Errorf("site B NotTaken = %d", b.NotTaken())
	}
	if got := st.TakenRate(); got != 0.5 {
		t.Errorf("TakenRate = %v, want 0.5", got)
	}
}

func TestSummarizeMajorityTie(t *testing.T) {
	tr := New("tie", 0)
	tr.Append(Record{PC: 1, Taken: true})
	tr.Append(Record{PC: 1, Taken: false})
	st := Summarize(tr)
	if !st.Sites[1].MajorityTaken() {
		t.Error("tie should predict taken")
	}
	if st.Sites[1].Bias() != 0.5 {
		t.Errorf("tie bias = %v", st.Sites[1].Bias())
	}
}

func TestBiasedFraction(t *testing.T) {
	tr := New("bias", 0)
	// Site 1: 100% biased, 10 branches. Site 2: 50% biased, 10 branches.
	for i := 0; i < 10; i++ {
		tr.Append(Record{PC: 1, Taken: true})
		tr.Append(Record{PC: 2, Taken: i%2 == 0})
	}
	st := Summarize(tr)
	if got := st.BiasedFraction(0.99); got != 0.5 {
		t.Errorf("BiasedFraction(0.99) = %v, want 0.5", got)
	}
	if got := st.BiasedFraction(0.4); got != 1.0 {
		t.Errorf("BiasedFraction(0.4) = %v, want 1.0", got)
	}
}

func TestSortedSites(t *testing.T) {
	tr := New("sorted", 0)
	for _, pc := range []Addr{30, 10, 20} {
		tr.Append(Record{PC: pc})
	}
	sites := Summarize(tr).SortedSites()
	if len(sites) != 3 || sites[0].PC != 10 || sites[1].PC != 20 || sites[2].PC != 30 {
		t.Errorf("SortedSites order wrong: %+v", sites)
	}
}

func TestStatsEmpty(t *testing.T) {
	st := Summarize(New("empty", 0))
	if st.TakenRate() != 0 || st.BiasedFraction(0.99) != 0 {
		t.Error("empty trace rates should be 0")
	}
	var s SiteStats
	if s.Bias() != 0 {
		t.Error("zero-count site bias should be 0")
	}
}
