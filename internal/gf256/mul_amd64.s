#include "textflag.h"

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// func mulAddAVX2(tbl *[32]byte, dst, src *byte, n int)
//
// dst[i] ^= c·src[i] for i in [0, n), n a positive multiple of 32, where
// tbl holds c·x for the 16 low nibbles x and then c·(x<<4) for the 16
// high ones. c·s = c·(s & 15) ^ c·(s & 0xf0), and VPSHUFB looks up 32
// nibbles at once in a 16-byte table copied to both 128-bit lanes.
//
// Every instruction is VEX-encoded. One legacy-SSE instruction (a MOVQ
// building the nibble mask in X8) made each call cost ~200 ns more on an
// AVX-512 host, six times a 32-byte row's table kernel; the mask is
// therefore loaded from memory.
TEXT ·mulAddAVX2(SB), NOSPLIT, $0-32
	MOVQ tbl+0(FP), AX
	MOVQ dst+8(FP), DI
	MOVQ src+16(FP), SI
	MOVQ n+24(FP), CX

	VBROADCASTI128 (AX), Y6   // low-nibble products
	VBROADCASTI128 16(AX), Y7 // high-nibble products
	VMOVDQU        nibbleMask<>(SB), Y8 // 0x0f in every byte

	CMPQ CX, $64
	JB   tail

loop64:
	VMOVDQU (SI), Y0
	VMOVDQU 32(SI), Y1
	VPSRLQ  $4, Y0, Y2
	VPSRLQ  $4, Y1, Y3
	VPAND   Y8, Y0, Y0
	VPAND   Y8, Y1, Y1
	VPAND   Y8, Y2, Y2
	VPAND   Y8, Y3, Y3
	VPSHUFB Y0, Y6, Y0
	VPSHUFB Y1, Y6, Y1
	VPSHUFB Y2, Y7, Y2
	VPSHUFB Y3, Y7, Y3
	VPXOR   Y2, Y0, Y0
	VPXOR   Y3, Y1, Y1
	VPXOR   (DI), Y0, Y0
	VPXOR   32(DI), Y1, Y1
	VMOVDQU Y0, (DI)
	VMOVDQU Y1, 32(DI)
	ADDQ    $64, SI
	ADDQ    $64, DI
	SUBQ    $64, CX
	CMPQ    CX, $64
	JAE     loop64

tail:
	TESTQ CX, CX
	JZ    done

	// One 32-byte block is left.
	VMOVDQU (SI), Y0
	VPSRLQ  $4, Y0, Y2
	VPAND   Y8, Y0, Y0
	VPAND   Y8, Y2, Y2
	VPSHUFB Y0, Y6, Y0
	VPSHUFB Y2, Y7, Y2
	VPXOR   Y2, Y0, Y0
	VPXOR   (DI), Y0, Y0
	VMOVDQU Y0, (DI)

done:
	VZEROUPPER
	RET

// nibbleMask is 0x0f in each of 32 bytes.
DATA nibbleMask<>+0(SB)/8, $0x0f0f0f0f0f0f0f0f
DATA nibbleMask<>+8(SB)/8, $0x0f0f0f0f0f0f0f0f
DATA nibbleMask<>+16(SB)/8, $0x0f0f0f0f0f0f0f0f
DATA nibbleMask<>+24(SB)/8, $0x0f0f0f0f0f0f0f0f
GLOBL nibbleMask<>(SB), RODATA|NOPTR, $32
