package wire

import (
	"errors"
	"math"
	"testing"

	"dledger/internal/merkle"
)

func TestReaderReadsInOrder(t *testing.T) {
	buf := []byte{7}
	buf = append(buf, 0x01, 0x02)
	buf = append(buf, 0x01, 0x02, 0x03, 0x04)
	buf = append(buf, 1, 2, 3, 4, 5, 6, 7, 8)
	buf = AppendBool(buf, true)
	buf = AppendBytes(buf, []byte("abc"))
	buf = AppendU64s(buf, []uint64{9, math.MaxUint64})
	proof := merkle.Proof{Index: 3, Leaves: 8, Path: []merkle.Root{{1}, {2}, {3}}}
	buf = AppendProof(buf, proof)

	r := NewReader(buf)
	if v := r.U8(); v != 7 {
		t.Fatalf("U8 = %d", v)
	}
	if v := r.U16(); v != 0x0102 {
		t.Fatalf("U16 = %#x", v)
	}
	if v := r.U32(); v != 0x01020304 {
		t.Fatalf("U32 = %#x", v)
	}
	if v := r.U64(); v != 0x0102030405060708 {
		t.Fatalf("U64 = %#x", v)
	}
	if !r.Bool() {
		t.Fatal("Bool = false")
	}
	if v := r.Bytes32(); string(v) != "abc" {
		t.Fatalf("Bytes32 = %q", v)
	}
	if v := r.U64s(int(r.U16())); len(v) != 2 || v[0] != 9 || v[1] != math.MaxUint64 {
		t.Fatalf("U64s = %v", v)
	}
	if r.Len() != ProofSize(proof) {
		t.Fatalf("Len = %d before a %d-byte proof", r.Len(), ProofSize(proof))
	}
	if p := r.Proof(); p.Index != 3 || p.Leaves != 8 || len(p.Path) != 3 || p.Path[2] != (merkle.Root{3}) {
		t.Fatalf("Proof = %+v", p)
	}
	if err := r.Done(); err != nil {
		t.Fatalf("Done = %v", err)
	}
}

// TestReaderLatchesFirstError: once a read runs past the input every
// later read yields zero values, nothing is left, and Done reports
// ErrShort (not ErrTrailing for the bytes the failed read left behind).
func TestReaderLatchesFirstError(t *testing.T) {
	r := NewReader([]byte{1, 2, 3})
	if v := r.U32(); v != 0 || !errors.Is(r.Err(), ErrShort) {
		t.Fatalf("short U32 = %d, err %v", v, r.Err())
	}
	if r.Len() != 0 {
		t.Fatalf("%d bytes still readable after the error", r.Len())
	}
	if r.U8() != 0 || r.U16() != 0 || r.U64() != 0 || r.Bool() || r.Hash() != ([32]byte{}) ||
		r.Bytes(0) != nil || r.Bytes32() != nil || r.View(1) != nil ||
		len(r.U64s(3)) != 0 || len(r.NodeIDs(3)) != 0 || len(r.Proof().Path) != 0 || r.Count(1, 1) != 0 {
		t.Fatal("a read after the latched error returned data")
	}
	if err := r.Done(); !errors.Is(err, ErrShort) {
		t.Fatalf("Done = %v, want ErrShort", err)
	}
}

func TestReaderDoneReportsTrailingBytes(t *testing.T) {
	r := NewReader([]byte{1, 2})
	r.U8()
	if err := r.Done(); !errors.Is(err, ErrTrailing) {
		t.Fatalf("Done = %v, want ErrTrailing", err)
	}
}

// TestReaderHostileLengths: a length that is negative as an int (what
// int(uint32) yields on a 32-bit platform), larger than the input, or a
// count whose byte size would overflow, is an ordinary ErrShort.
func TestReaderHostileLengths(t *testing.T) {
	data := make([]byte, 64)
	for name, read := range map[string]func(*Reader){
		"negative Bytes":   func(r *Reader) { r.Bytes(-16) },
		"negative View":    func(r *Reader) { r.View(math.MinInt) },
		"oversized Bytes":  func(r *Reader) { r.Bytes(65) },
		"huge Bytes":       func(r *Reader) { r.Bytes(math.MaxInt) },
		"forged Bytes32":   func(r *Reader) { *r = *NewReader([]byte{0xFF, 0xFF, 0xFF, 0xF0, 1}); r.Bytes32() },
		"negative Count":   func(r *Reader) { r.Count(-1, 1) },
		"oversized Count":  func(r *Reader) { r.Count(9, 8) },
		"overflowing U64s": func(r *Reader) { r.U64s(math.MaxInt/8 + 1) },
		"oversized IDs":    func(r *Reader) { r.NodeIDs(33) },
		"oversized hashes": func(r *Reader) { Hashes[[32]byte](r, 3) },
	} {
		r := NewReader(data)
		read(r)
		if !errors.Is(r.Err(), ErrShort) || r.Len() != 0 {
			t.Errorf("%s: err %v, %d bytes left", name, r.Err(), r.Len())
		}
	}
	r := NewReader(data)
	if r.Count(8, 8) != 8 || r.Count(64, 1) != 64 || r.Err() != nil {
		t.Fatal("a count that exactly fits was rejected")
	}
}

// TestReaderCopiesAndViews: Bytes results own their memory, View results
// alias the input but cannot grow into what follows them.
func TestReaderCopiesAndViews(t *testing.T) {
	data := []byte{1, 2, 3, 4}
	r := NewReader(data)
	view, copied := r.View(2), r.Bytes(1)
	data[0], data[2] = 9, 9
	if view[0] != 9 {
		t.Fatal("View copied")
	}
	if copied[0] != 3 {
		t.Fatal("Bytes aliases the input")
	}
	if view = append(view, 7); data[2] == 7 {
		t.Fatal("appending to a View overwrote the input")
	}
	if empty := r.U64s(0); empty == nil {
		t.Fatal("U64s(0) is nil: formats tell an empty list from an absent one")
	}
	if hs := Hashes[merkle.Root](r, 0); hs != nil || r.Err() != nil {
		t.Fatalf("Hashes(0) = %v, err %v", hs, r.Err())
	}
}
