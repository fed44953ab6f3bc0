package wire

import (
	"encoding/binary"

	"dledger/internal/merkle"
)

// Reader is the bounds-checked cursor every binary decoder in the
// repository reads through: peer envelopes and blocks here, WAL records,
// chunk records and manifests in package store, engine snapshots,
// checkpoint blobs, state-sync pages and the gateway's client frames.
// All formats are big-endian with explicit lengths and counts.
//
// The first read that runs past the input latches ErrShort; every later
// read returns a zero value without touching the input, so a decoder
// reads its whole layout straight through and checks Done (or Err) once
// at the end. Lengths and counts taken from the input are only ever
// applied in take and Count — a decoder never indexes a slice by a
// number it decoded, which is what keeps a forged 0xFFFFFFF0 (negative
// as a 32-bit int) or a count of 2^32−1 an ordinary ErrShort.
type Reader struct {
	buf []byte
	err error
}

// NewReader returns a reader over data. It does not copy: View results
// alias data, everything else is copied out.
func NewReader(data []byte) *Reader { return &Reader{buf: data} }

// take consumes the next n bytes, or latches ErrShort when n is negative
// or more than what is left (after which nothing is left).
func (r *Reader) take(n int) []byte {
	if n < 0 || n > len(r.buf) {
		r.buf, r.err = nil, ErrShort
		return nil
	}
	b := r.buf[:n:n]
	r.buf = r.buf[n:]
	return b
}

// Len returns the number of unread bytes (0 once an error latched).
func (r *Reader) Len() int { return len(r.buf) }

// Err returns ErrShort if any read so far ran past the input.
func (r *Reader) Err() error { return r.err }

// Done ends a decode: the latched error if there is one, ErrTrailing if
// input is left over, nil otherwise.
func (r *Reader) Done() error {
	if r.err == nil && len(r.buf) != 0 {
		return ErrTrailing
	}
	return r.err
}

// U8 reads one byte.
func (r *Reader) U8() uint8 {
	if b := r.take(1); b != nil {
		return b[0]
	}
	return 0
}

// U16 reads a big-endian uint16.
func (r *Reader) U16() uint16 {
	if b := r.take(2); b != nil {
		return binary.BigEndian.Uint16(b)
	}
	return 0
}

// U32 reads a big-endian uint32.
func (r *Reader) U32() uint32 {
	if b := r.take(4); b != nil {
		return binary.BigEndian.Uint32(b)
	}
	return 0
}

// U64 reads a big-endian uint64.
func (r *Reader) U64() uint64 {
	if b := r.take(8); b != nil {
		return binary.BigEndian.Uint64(b)
	}
	return 0
}

// Bool reads one byte; any non-zero value is true.
func (r *Reader) Bool() bool { return r.U8() != 0 }

// Hash reads a 32-byte hash (a Merkle root, a transaction hash).
func (r *Reader) Hash() (h [32]byte) {
	copy(h[:], r.take(len(h)))
	return h
}

// View consumes n bytes and returns them without copying: the result
// aliases the reader's input and is for handing to another decoder.
func (r *Reader) View(n int) []byte { return r.take(n) }

// Bytes reads n bytes into a fresh slice; nil when n is 0.
func (r *Reader) Bytes(n int) []byte { return append([]byte(nil), r.take(n)...) }

// Bytes32 reads a u32 length and that many bytes (AppendBytes's inverse).
func (r *Reader) Bytes32() []byte { return r.Bytes(int(r.U32())) }

// Count validates an element count read from the input: n elements of
// at least elem bytes each must fit in what is left, else ErrShort
// latches and Count returns 0. Sizing a make and bounding a loop by the
// result therefore never costs more than the input is long.
func (r *Reader) Count(n, elem int) int {
	if n < 0 || n > len(r.buf)/elem {
		r.buf, r.err = nil, ErrShort
		return 0
	}
	return n
}

// U64s reads n big-endian uint64s; the result is non-nil even for n = 0
// (formats distinguish an empty list from an absent one).
func (r *Reader) U64s(n int) []uint64 {
	vs := make([]uint64, r.Count(n, 8))
	for i := range vs {
		vs[i] = r.U64()
	}
	return vs
}

// NodeIDs reads n u16 node ids; non-nil even for n = 0.
func (r *Reader) NodeIDs(n int) []NodeID {
	ids := make([]NodeID, r.Count(n, 2))
	for i := range ids {
		ids[i] = NodeID(r.U16())
	}
	return ids
}

// Hashes reads n 32-byte hashes as the caller's hash type (Merkle roots,
// transaction hashes); nil when n is 0.
func Hashes[H ~[32]byte](r *Reader, n int) []H {
	n = r.Count(n, 32)
	if n == 0 {
		return nil
	}
	hs := make([]H, n)
	for i := range hs {
		hs[i] = r.Hash()
	}
	return hs
}

// Proof reads a Merkle inclusion proof (AppendProof's inverse).
func (r *Reader) Proof() merkle.Proof {
	return merkle.Proof{Index: int(r.U16()), Leaves: int(r.U16()), Path: Hashes[merkle.Root](r, int(r.U8()))}
}

// ----- The sub-formats several formats share, one encoder each -----

// AppendBool appends a flag as one byte, 0 or 1.
func AppendBool(buf []byte, v bool) []byte {
	if v {
		return append(buf, 1)
	}
	return append(buf, 0)
}

// AppendBytes appends b behind its u32 length.
func AppendBytes(buf, b []byte) []byte {
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(b)))
	return append(buf, b...)
}

// AppendU64s appends vs behind its u16 count (per-node arrays: V,
// linked floors).
func AppendU64s(buf []byte, vs []uint64) []byte {
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(vs)))
	for _, v := range vs {
		buf = binary.BigEndian.AppendUint64(buf, v)
	}
	return buf
}

// ProofSize is the encoded size of a Merkle proof: index(2) leaves(2)
// pathLen(1) and the path.
func ProofSize(p merkle.Proof) int { return 5 + len(p.Path)*merkle.RootSize }

// AppendProof appends a Merkle inclusion proof.
func AppendProof(buf []byte, p merkle.Proof) []byte {
	buf = binary.BigEndian.AppendUint16(buf, uint16(p.Index))
	buf = binary.BigEndian.AppendUint16(buf, uint16(p.Leaves))
	buf = append(buf, byte(len(p.Path)))
	for _, h := range p.Path {
		buf = append(buf, h[:]...)
	}
	return buf
}
