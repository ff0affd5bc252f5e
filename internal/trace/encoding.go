package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Binary trace format ("BTR1"):
//
//	magic   [4]byte  "BTR1"
//	namelen uvarint
//	name    [namelen]byte
//	count   uvarint  number of records
//	records ...
//
// Each record is a uvarint header followed, when the PC changed, by the PC
// delta. The header packs:
//
//	bit 0: taken
//	bit 1: backward
//	bit 2: samePC (PC identical to previous record; no delta follows)
//	bits 3+: reserved, must be zero
//
// The PC delta is a zigzag-encoded signed difference from the previous
// record's PC. Branch traces are highly local, so deltas are small; the
// format typically spends ~1.5 bytes per record.
//
// Decoding is canonical: every decodable stream re-encodes byte-identically.
// The decoders therefore reject the four ways a stream could carry the
// same records in different bytes — nonzero reserved header bits,
// non-minimal uvarints (e.g. 0x80 0x00 for 0), an explicit zero PC delta
// where the samePC flag is the canonical spelling, and a delta that only
// reaches its PC by wrapping modulo 2^32. The invariant is pinned by
// TestEncodingCanonical and FuzzTraceRead.

var magic = [4]byte{'B', 'T', 'R', '1'}

// ErrBadMagic is returned when decoding a stream that does not start with
// the trace format magic.
var ErrBadMagic = errors.New("trace: bad magic (not a BTR1 trace)")

const (
	flagTaken    = 1 << 0
	flagBackward = 1 << 1
	flagSamePC   = 1 << 2
	flagReserved = ^uint64(flagTaken | flagBackward | flagSamePC)
)

// maxNameLen bounds the trace-name field so a corrupt header cannot
// demand a gigabyte allocation.
const maxNameLen = 1 << 20

// readPrealloc caps how much record capacity the in-memory decoder
// preallocates from the header's (attacker-controlled) record count; the
// columns grow normally as records actually arrive, so a 15-byte file
// claiming 2^60 records errors out after a few bytes instead of OOMing
// the process (TestReadHugeCountNoOOM).
const readPrealloc = 1 << 16

var (
	errNonMinimalVarint = errors.New("non-minimal uvarint encoding")
	errVarintOverflow   = errors.New("uvarint overflows 64 bits")
	errReservedBits     = errors.New("reserved header bits set")
	errZeroDelta        = errors.New("zero pc delta (canonical form is the samePC flag)")
	errAliasedDelta     = errors.New("pc delta aliases a wraparound (canonical form is the exact difference)")
)

func zigzag(d int64) uint64   { return uint64((d << 1) ^ (d >> 63)) }
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// readUvarint decodes a canonical (minimal-length) uvarint. It accepts
// exactly the encodings binary.PutUvarint produces: a value encoded in
// more bytes than necessary — detectable as a multi-byte encoding whose
// final byte is zero — is an error, so decode∘encode is the identity on
// bytes, not just on values.
func readUvarint(br *bufio.Reader) (uint64, error) {
	var x uint64
	var s uint
	for i := 0; ; i++ {
		b, err := br.ReadByte()
		if err != nil {
			return 0, err
		}
		if b < 0x80 {
			if i > 0 && b == 0 {
				return 0, errNonMinimalVarint
			}
			if i == 9 && b > 1 {
				return 0, errVarintOverflow
			}
			return x | uint64(b)<<s, nil
		}
		if i == 9 {
			return 0, errVarintOverflow
		}
		x |= uint64(b&0x7f) << s
		s += 7
	}
}

// readHeader consumes the magic, name, and record count that start every
// BTR1 stream.
func readHeader(br *bufio.Reader) (name string, count uint64, err error) {
	var m [4]byte
	if _, err := io.ReadFull(br, m[:]); err != nil {
		return "", 0, fmt.Errorf("trace: reading magic: %w", err)
	}
	if m != magic {
		return "", 0, ErrBadMagic
	}
	nameLen, err := readUvarint(br)
	if err != nil {
		return "", 0, fmt.Errorf("trace: reading name length: %w", err)
	}
	if nameLen > maxNameLen {
		return "", 0, fmt.Errorf("trace: unreasonable name length %d", nameLen)
	}
	nameBuf := make([]byte, nameLen)
	if _, err := io.ReadFull(br, nameBuf); err != nil {
		return "", 0, fmt.Errorf("trace: reading name: %w", err)
	}
	count, err = readUvarint(br)
	if err != nil {
		return "", 0, fmt.Errorf("trace: reading record count: %w", err)
	}
	return string(nameBuf), count, nil
}

// readRecord decodes one record given the previous record's PC, enforcing
// the canonical-encoding rules.
func readRecord(br *bufio.Reader, prev Addr) (Record, error) {
	hdr, err := readUvarint(br)
	if err != nil {
		return Record{}, fmt.Errorf("header: %w", err)
	}
	if hdr&flagReserved != 0 {
		return Record{}, fmt.Errorf("header %#x: %w", hdr, errReservedBits)
	}
	rec := Record{
		Taken:    hdr&flagTaken != 0,
		Backward: hdr&flagBackward != 0,
	}
	if hdr&flagSamePC != 0 {
		rec.PC = prev
		return rec, nil
	}
	d, err := readUvarint(br)
	if err != nil {
		return Record{}, fmt.Errorf("pc delta: %w", err)
	}
	if d == 0 {
		return Record{}, errZeroDelta
	}
	delta := unzigzag(d)
	rec.PC = Addr(int64(prev) + delta)
	// The encoder always emits the exact int64 difference of the two
	// 32-bit PCs; a delta that only reaches the PC by wrapping modulo
	// 2^32 (e.g. -25 standing in for +2^32-25) is an alias of that
	// canonical spelling and would break re-encode identity.
	if delta != int64(rec.PC)-int64(prev) {
		return Record{}, errAliasedDelta
	}
	return rec, nil
}

// Write encodes the trace to w in the binary format.
func (t *Trace) Write(w io.Writer) error {
	bw := bufio.NewWriterSize(w, 1<<16)
	if _, err := bw.Write(magic[:]); err != nil {
		return err
	}
	var buf [binary.MaxVarintLen64]byte
	putUvarint := func(v uint64) error {
		n := binary.PutUvarint(buf[:], v)
		_, err := bw.Write(buf[:n])
		return err
	}
	if err := putUvarint(uint64(len(t.name))); err != nil {
		return err
	}
	if _, err := bw.WriteString(t.name); err != nil {
		return err
	}
	p := t.Packed()
	if err := putUvarint(uint64(p.Len())); err != nil {
		return err
	}
	prev := Addr(0)
	for i := 0; i < p.Len(); i++ {
		r := p.Record(i)
		hdr := uint64(0)
		if r.Taken {
			hdr |= flagTaken
		}
		if r.Backward {
			hdr |= flagBackward
		}
		if r.PC == prev {
			hdr |= flagSamePC
		}
		if err := putUvarint(hdr); err != nil {
			return err
		}
		if r.PC != prev {
			if err := putUvarint(zigzag(int64(r.PC) - int64(prev))); err != nil {
				return err
			}
			prev = r.PC
		}
	}
	return bw.Flush()
}

// Read decodes a trace from r into an in-memory trace's columns.
// Arbitrarily long on-disk traces should stream through ReadBlocks
// instead. The header's record count is treated as a claim,
// not a budget: preallocation is capped (readPrealloc) and the
// trace's columns grow only as records actually decode.
func Read(r io.Reader) (*Trace, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	name, count, err := readHeader(br)
	if err != nil {
		return nil, err
	}
	t := New(name, int(min(count, readPrealloc)))
	prev := Addr(0)
	for i := uint64(0); i < count; i++ {
		rec, err := readRecord(br, prev)
		if err != nil {
			return nil, fmt.Errorf("trace: record %d: %w", i, err)
		}
		prev = rec.PC
		t.Append(rec)
	}
	return t, nil
}
