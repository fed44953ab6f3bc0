package gf256

import (
	"bytes"
	"fmt"
	"testing"
	"testing/quick"
)

func TestTablesConsistent(t *testing.T) {
	// exp and log must be inverse bijections on the non-zero elements.
	seen := make(map[byte]bool)
	for i := 0; i < 255; i++ {
		v := Exp(i)
		if v == 0 {
			t.Fatalf("Exp(%d) = 0; generator powers must be non-zero", i)
		}
		if seen[v] {
			t.Fatalf("Exp(%d) = %d repeats an earlier power", i, v)
		}
		seen[v] = true
		if got := logTable[v]; int(got) != i {
			t.Fatalf("log(Exp(%d)) = %d, want %d", i, got, i)
		}
	}
	if len(seen) != 255 {
		t.Fatalf("generator produced %d distinct non-zero elements, want 255", len(seen))
	}
}

func TestMulBruteForce(t *testing.T) {
	// Compare table-based Mul against carry-less polynomial multiplication
	// reduced mod the field polynomial, over the full 256x256 space.
	slowMul := func(a, b byte) byte {
		var prod uint16
		for i := 0; i < 8; i++ {
			if b&(1<<i) != 0 {
				prod ^= uint16(a) << i
			}
		}
		for i := 15; i >= 8; i-- {
			if prod&(1<<i) != 0 {
				prod ^= Polynomial << (i - 8)
			}
		}
		return byte(prod)
	}
	for a := 0; a < 256; a++ {
		for b := 0; b < 256; b++ {
			if got, want := Mul(byte(a), byte(b)), slowMul(byte(a), byte(b)); got != want {
				t.Fatalf("Mul(%d, %d) = %d, want %d", a, b, got, want)
			}
		}
	}
}

func TestFieldAxioms(t *testing.T) {
	cfg := &quick.Config{MaxCount: 2000}

	commutative := func(a, b byte) bool {
		return Mul(a, b) == Mul(b, a) && Add(a, b) == Add(b, a)
	}
	if err := quick.Check(commutative, cfg); err != nil {
		t.Error(err)
	}

	associative := func(a, b, c byte) bool {
		return Mul(Mul(a, b), c) == Mul(a, Mul(b, c))
	}
	if err := quick.Check(associative, cfg); err != nil {
		t.Error(err)
	}

	distributive := func(a, b, c byte) bool {
		return Mul(a, Add(b, c)) == Add(Mul(a, b), Mul(a, c))
	}
	if err := quick.Check(distributive, cfg); err != nil {
		t.Error(err)
	}

	identity := func(a byte) bool {
		return Mul(a, 1) == a && Add(a, 0) == a
	}
	if err := quick.Check(identity, cfg); err != nil {
		t.Error(err)
	}

	additiveInverse := func(a byte) bool {
		return Add(a, a) == 0 // characteristic 2
	}
	if err := quick.Check(additiveInverse, cfg); err != nil {
		t.Error(err)
	}
}

func TestInvAndDiv(t *testing.T) {
	for a := 1; a < 256; a++ {
		inv := Inv(byte(a))
		if Mul(byte(a), inv) != 1 {
			t.Fatalf("Inv(%d) = %d is not an inverse", a, inv)
		}
		if Div(1, byte(a)) != inv {
			t.Fatalf("Div(1, %d) != Inv(%d)", a, a)
		}
	}
	// a/b * b == a for b != 0
	f := func(a, b byte) bool {
		if b == 0 {
			return true
		}
		return Mul(Div(a, b), b) == a
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDivByZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Div by zero did not panic")
		}
	}()
	Div(5, 0)
}

func TestInvZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Inv(0) did not panic")
		}
	}()
	Inv(0)
}

func TestMulSlice(t *testing.T) {
	src := []byte{0, 1, 2, 3, 255}
	dst := make([]byte, len(src))
	MulSlice(7, dst, src)
	for i := range src {
		if dst[i] != Mul(7, src[i]) {
			t.Fatalf("MulSlice mismatch at %d", i)
		}
	}
	// c == 0 zeroes dst
	MulSlice(0, dst, src)
	for i := range dst {
		if dst[i] != 0 {
			t.Fatal("MulSlice(0, ...) must zero dst")
		}
	}
	// c == 1 copies
	MulSlice(1, dst, src)
	for i := range dst {
		if dst[i] != src[i] {
			t.Fatal("MulSlice(1, ...) must copy src")
		}
	}
}

func TestMulAddSlice(t *testing.T) {
	src := []byte{9, 8, 7, 6}
	dst := []byte{1, 2, 3, 4}
	want := make([]byte, 4)
	for i := range want {
		want[i] = Add(dst[i], Mul(5, src[i]))
	}
	MulAddSlice(5, dst, src)
	for i := range want {
		if dst[i] != want[i] {
			t.Fatalf("MulAddSlice mismatch at %d: got %d want %d", i, dst[i], want[i])
		}
	}
}

func TestMulSliceLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("length mismatch did not panic")
		}
	}()
	MulSlice(3, make([]byte, 2), make([]byte, 3))
}

func TestMulTableMatchesMul(t *testing.T) {
	for c := 0; c < 256; c++ {
		for x := 0; x < 256; x++ {
			if mulTable[c][x] != Mul(byte(c), byte(x)) {
				t.Fatalf("mulTable[%d][%d] = %d, want Mul = %d", c, x, mulTable[c][x], Mul(byte(c), byte(x)))
			}
		}
	}
}

// TestSliceKernelsAllLengths drives the unrolled kernels across lengths
// that cover every remainder of the 8-byte unroll, comparing against the
// scalar definition.
func TestSliceKernelsAllLengths(t *testing.T) {
	for n := 0; n <= 33; n++ {
		src := make([]byte, n)
		base := make([]byte, n)
		for i := range src {
			src[i] = byte(i*37 + 11)
			base[i] = byte(i*13 + 5)
		}
		for _, c := range []byte{0, 1, 2, 85, 255} {
			dst := append([]byte(nil), base...)
			MulAddSlice(c, dst, src)
			for i := range dst {
				if want := Add(base[i], Mul(c, src[i])); dst[i] != want {
					t.Fatalf("n=%d c=%d MulAddSlice[%d] = %d, want %d", n, c, i, dst[i], want)
				}
			}
			dst = append([]byte(nil), base...)
			MulSlice(c, dst, src)
			for i := range dst {
				if want := Mul(c, src[i]); dst[i] != want {
					t.Fatalf("n=%d c=%d MulSlice[%d] = %d, want %d", n, c, i, dst[i], want)
				}
			}
		}
		dst := append([]byte(nil), base...)
		XorSlice(dst, src)
		for i := range dst {
			if want := base[i] ^ src[i]; dst[i] != want {
				t.Fatalf("n=%d XorSlice[%d] = %d, want %d", n, i, dst[i], want)
			}
		}
	}
}

func TestMulAddRow(t *testing.T) {
	coeffs := []byte{3, 0, 1, 200}
	srcs := make([][]byte, len(coeffs))
	for j := range srcs {
		srcs[j] = make([]byte, 16)
		for i := range srcs[j] {
			srcs[j][i] = byte(j*41 + i)
		}
	}
	out := make([]byte, 16)
	MulAddRow(out, coeffs, srcs)
	for i := 0; i < 16; i++ {
		var want byte
		for j := range coeffs {
			want = Add(want, Mul(coeffs[j], srcs[j][i]))
		}
		if out[i] != want {
			t.Fatalf("MulAddRow[%d] = %d, want %d", i, out[i], want)
		}
	}
}

// The slice kernels are the hot path of every encode and decode; they
// must never allocate.
func TestSliceKernelsDoNotAllocate(t *testing.T) {
	dst := make([]byte, 4096)
	src := make([]byte, 4096)
	for i := range src {
		src[i] = byte(i)
	}
	if n := testing.AllocsPerRun(100, func() { MulAddSlice(7, dst, src) }); n != 0 {
		t.Fatalf("MulAddSlice allocates %v times per run", n)
	}
	if n := testing.AllocsPerRun(100, func() { MulSlice(7, dst, src) }); n != 0 {
		t.Fatalf("MulSlice allocates %v times per run", n)
	}
	if n := testing.AllocsPerRun(100, func() { XorSlice(dst, src) }); n != 0 {
		t.Fatalf("XorSlice allocates %v times per run", n)
	}
}

// withTableKernel runs fn with the vector kernel switched off, so
// MulAddSlice takes the portable path on every platform.
func withTableKernel(fn func()) {
	saved := useSIMD
	useSIMD = false
	defer func() { useSIMD = saved }()
	fn()
}

// TestMulAddSliceMatchesTableKernel is the vector kernel's differential
// test: every coefficient, every length from 0 to 300 and one of
// 64 KiB + 7, with dst and src starting at offsets 0–31 of their backing
// arrays, against the table kernel. Guard bytes around dst catch a
// kernel that writes past either end.
func TestMulAddSliceMatchesTableKernel(t *testing.T) {
	if !useSIMD {
		t.Skip("no vector kernel on this CPU or platform")
	}
	const guard = 32
	srcBuf := make([]byte, 64<<10+7+guard)
	for i := range srcBuf {
		srcBuf[i] = byte(i*131 + i>>8)
	}
	lengths := make([]int, 0, 302)
	for n := 0; n <= 300; n++ {
		lengths = append(lengths, n)
	}
	lengths = append(lengths, 64<<10+7)
	got := make([]byte, 64<<10+7+3*guard)
	want := make([]byte, len(got))
	for c := 0; c < 256; c++ {
		for _, n := range lengths {
			so, do := (n+c)%32, (n*7+c)%32 // both run through 0–31
			src := srcBuf[so : so+n]
			g, w := got[:n+3*guard], want[:n+3*guard]
			for i := range g {
				g[i] = byte(i*29 + c)
			}
			copy(w, g)
			MulAddSlice(byte(c), g[guard+do:guard+do+n], src)
			withTableKernel(func() { MulAddSlice(byte(c), w[guard+do:guard+do+n], src) })
			if !bytes.Equal(g, w) {
				for i := range g {
					if g[i] != w[i] {
						t.Fatalf("c=%d n=%d src+%d dst+%d: byte %d of dst = %d, table kernel %d", c, n, so, do, i-guard-do, g[i], w[i])
					}
				}
			}
		}
	}
}

// TestTableKernelFallback runs the kernel tests on the table kernel too:
// on amd64 with AVX2 they otherwise reach it only for short slices and
// tails.
func TestTableKernelFallback(t *testing.T) {
	withTableKernel(func() {
		TestSliceKernelsAllLengths(t)
		TestMulAddRow(t)
		TestSliceKernelsDoNotAllocate(t)
	})
}

// BenchmarkMulAddSlice prices the kernel at the row lengths the code
// meets, from the 32 B rows of a K=32 matrix inversion (the vector
// kernel's shortest, simdMinLen) to a 64 KiB shard. Each length runs both
// kernels, so the threshold stays measured.
func BenchmarkMulAddSlice(b *testing.B) {
	for _, n := range []int{32, 64, 96, 128, 256, 512, 64 << 10} {
		dst := make([]byte, n)
		src := make([]byte, n)
		for i := range src {
			src[i] = byte(i)
		}
		run := func(b *testing.B) {
			b.SetBytes(int64(n))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				MulAddSlice(7, dst, src)
			}
		}
		b.Run(fmt.Sprintf("%dB", n), run)
		b.Run(fmt.Sprintf("%dB/table", n), func(b *testing.B) { withTableKernel(func() { run(b) }) })
	}
}

func BenchmarkXorSlice(b *testing.B) {
	dst := make([]byte, 64<<10)
	src := make([]byte, 64<<10)
	for i := range src {
		src[i] = byte(i)
	}
	b.SetBytes(int64(len(src)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		XorSlice(dst, src)
	}
}
