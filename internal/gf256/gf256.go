// Package gf256 implements arithmetic over the finite field GF(2^8) and
// matrix operations over it. It is the algebraic substrate for the
// Reed-Solomon erasure code in package erasure.
//
// The field is realized as GF(2)[x] / (x^8 + x^4 + x^3 + x^2 + 1), the
// polynomial 0x11d that is standard in Reed-Solomon implementations. All
// non-zero elements are powers of the generator 2, which lets us implement
// multiplication and division with log/exp tables.
package gf256

import "encoding/binary"

// Polynomial is the irreducible polynomial defining the field,
// x^8 + x^4 + x^3 + x^2 + 1.
const Polynomial = 0x11d

// Generator is a primitive element of the field: every non-zero field
// element is a power of it.
const Generator = 2

var (
	expTable [512]byte // expTable[i] = Generator^i; doubled to avoid mod 255 in Mul
	logTable [256]byte // logTable[x] = i such that Generator^i = x, for x != 0

	// mulTable[c][x] = c*x. 64 KiB — small enough to stay cache-resident
	// through an encode, and it turns the slice kernels' inner loop into a
	// single branch-free lookup per byte (the log/exp form needs two
	// dependent loads plus a zero test). It is the portable kernel, the
	// tail of the AVX2 one, and the oracle the AVX2 kernel is tested
	// against.
	mulTable [256][256]byte
)

func init() {
	x := 1
	for i := 0; i < 255; i++ {
		expTable[i] = byte(x)
		logTable[x] = byte(i)
		x <<= 1
		if x&0x100 != 0 {
			x ^= Polynomial
		}
	}
	for i := 255; i < 512; i++ {
		expTable[i] = expTable[i-255]
	}
	for c := 1; c < 256; c++ {
		logC := int(logTable[c])
		row := &mulTable[c]
		for x := 1; x < 256; x++ {
			row[x] = expTable[logC+int(logTable[x])]
		}
	}
	initSIMD()
}

// Add returns a + b in GF(2^8). Addition is XOR; it is its own inverse, so
// Add also computes subtraction.
func Add(a, b byte) byte { return a ^ b }

// Mul returns a * b in GF(2^8).
func Mul(a, b byte) byte {
	if a == 0 || b == 0 {
		return 0
	}
	return expTable[int(logTable[a])+int(logTable[b])]
}

// Div returns a / b in GF(2^8). It panics if b is zero.
func Div(a, b byte) byte {
	if b == 0 {
		panic("gf256: division by zero")
	}
	if a == 0 {
		return 0
	}
	return expTable[int(logTable[a])-int(logTable[b])+255]
}

// Inv returns the multiplicative inverse of a. It panics if a is zero.
func Inv(a byte) byte {
	if a == 0 {
		panic("gf256: zero has no inverse")
	}
	return expTable[255-int(logTable[a])]
}

// Exp returns Generator^n for n >= 0.
func Exp(n int) byte {
	return expTable[n%255]
}

// MulSlice sets dst[i] = c * src[i] for all i. dst and src must have the
// same length; they may alias.
func MulSlice(c byte, dst, src []byte) {
	if len(dst) != len(src) {
		panic("gf256: MulSlice length mismatch")
	}
	if c == 0 {
		for i := range dst {
			dst[i] = 0
		}
		return
	}
	if c == 1 {
		copy(dst, src)
		return
	}
	mt := &mulTable[c]
	i := 0
	for ; i+8 <= len(src); i += 8 {
		s := src[i : i+8 : i+8]
		d := dst[i : i+8 : i+8]
		d[0] = mt[s[0]]
		d[1] = mt[s[1]]
		d[2] = mt[s[2]]
		d[3] = mt[s[3]]
		d[4] = mt[s[4]]
		d[5] = mt[s[5]]
		d[6] = mt[s[6]]
		d[7] = mt[s[7]]
	}
	for ; i < len(src); i++ {
		dst[i] = mt[src[i]]
	}
}

// MulAddSlice sets dst[i] ^= c * src[i] for all i. It is the inner loop of
// Reed-Solomon encoding. On amd64 with AVX2 a slice of simdMinLen bytes
// or more runs the split-nibble shuffle kernel, 32 bytes per instruction;
// the rest, and every slice elsewhere, runs the table kernel. Both
// compute the same field products, so the output is bit-identical.
func MulAddSlice(c byte, dst, src []byte) {
	if len(dst) != len(src) {
		panic("gf256: MulAddSlice length mismatch")
	}
	if c == 0 {
		return
	}
	if c == 1 {
		XorSlice(dst, src)
		return
	}
	n := mulAddSIMD(c, dst, src)
	mulAddTable(&mulTable[c], dst[n:], src[n:])
}

// mulAddTable is MulAddSlice's table kernel: one branch-free lookup per
// input byte, no per-byte zero test.
func mulAddTable(mt *[256]byte, dst, src []byte) {
	i := 0
	for ; i+8 <= len(src); i += 8 {
		s := src[i : i+8 : i+8]
		d := dst[i : i+8 : i+8]
		d[0] ^= mt[s[0]]
		d[1] ^= mt[s[1]]
		d[2] ^= mt[s[2]]
		d[3] ^= mt[s[3]]
		d[4] ^= mt[s[4]]
		d[5] ^= mt[s[5]]
		d[6] ^= mt[s[6]]
		d[7] ^= mt[s[7]]
	}
	for ; i < len(src); i++ {
		dst[i] ^= mt[src[i]]
	}
}

// XorSlice sets dst[i] ^= src[i] for all i (GF(2^8) addition of whole
// slices, and the c == 1 case of MulAddSlice). The word-at-a-time loop
// vectorizes the XOR eight bytes per operation without unsafe.
func XorSlice(dst, src []byte) {
	if len(dst) != len(src) {
		panic("gf256: XorSlice length mismatch")
	}
	i := 0
	for ; i+8 <= len(src); i += 8 {
		v := binary.LittleEndian.Uint64(dst[i:]) ^ binary.LittleEndian.Uint64(src[i:])
		binary.LittleEndian.PutUint64(dst[i:], v)
	}
	for ; i < len(src); i++ {
		dst[i] ^= src[i]
	}
}

// MulAddRow accumulates a full matrix-vector row in one call:
// out[i] ^= Σ_j coeffs[j] * srcs[j][i]. It is the unit of work the
// erasure coder hands to its worker pool — one output row per task, so
// parallel encodes write disjoint memory and the result is independent
// of scheduling order. Every srcs[j] must have len(out).
func MulAddRow(out []byte, coeffs []byte, srcs [][]byte) {
	for j, src := range srcs {
		MulAddSlice(coeffs[j], out, src)
	}
}
