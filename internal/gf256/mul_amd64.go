package gf256

// simdMinLen is the shortest slice MulAddSlice hands to the AVX2 kernel:
// one 32-byte block. BenchmarkMulAddSlice measures the kernel ahead of
// the table one from there (10 against 22 ns at 32 B, EXPERIMENTS.md), so
// a K=32 matrix inversion, whose rows are 32 B, runs it too.
const simdMinLen = 32

// useSIMD is set at start-up when the CPU has AVX2 and the OS saves the
// YMM registers. Tests clear it to run the table kernel on this platform.
var useSIMD = hasAVX2()

// nibbleTable[c] is c·x for the low nibbles x = 0..15, then c·(x<<4) for
// the high ones: the two 16-byte tables of the split-nibble kernel.
var nibbleTable [256][32]byte

func initSIMD() {
	for c := range nibbleTable {
		for x := 0; x < 16; x++ {
			nibbleTable[c][x] = mulTable[c][x]
			nibbleTable[c][16+x] = mulTable[c][x<<4]
		}
	}
}

// mulAddSIMD runs dst[i] ^= c·src[i] over the longest prefix the AVX2
// kernel takes, and returns its length (0 when the kernel is off or the
// slice is short); the table kernel finishes the rest.
func mulAddSIMD(c byte, dst, src []byte) int {
	if !useSIMD || len(src) < simdMinLen {
		return 0
	}
	n := len(src) &^ 31
	mulAddAVX2(&nibbleTable[c], &dst[0], &src[0], n)
	return n
}

func hasAVX2() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	const osxsave, avx = 1 << 27, 1 << 28
	if ecx1&osxsave == 0 || ecx1&avx == 0 {
		return false
	}
	// XCR0 bits 1 and 2: the OS saves XMM and YMM state on a switch.
	if xcr0, _ := xgetbv(); xcr0&6 != 6 {
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	const avx2 = 1 << 5
	return ebx7&avx2 != 0
}

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

//go:noescape
func mulAddAVX2(tbl *[32]byte, dst, src *byte, n int)
