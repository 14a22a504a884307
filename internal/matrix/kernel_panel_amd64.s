//go:build amd64

#include "textflag.h"

// func axpyPanel8SSE2(ci *float64, b *float64, ldb, n int, a *[8]float64)
//
// ci[j] += a0·b0[j] + a1·b1[j] + … + a7·b7[j], j = 0..n-1, where row t is
// b + t·ldb. The adds chain left-to-right through one accumulator per
// element, matching the pure-Go panel loop bit for bit. Elements are
// processed four per iteration (two independent two-lane accumulators),
// then a two-lane pair and a scalar tail.
TEXT ·axpyPanel8SSE2(SB), NOSPLIT, $0-40
	// Broadcast the eight coefficients into X0..X7.
	MOVQ a+32(FP), AX
	MOVSD 0(AX), X0
	UNPCKLPD X0, X0
	MOVSD 8(AX), X1
	UNPCKLPD X1, X1
	MOVSD 16(AX), X2
	UNPCKLPD X2, X2
	MOVSD 24(AX), X3
	UNPCKLPD X3, X3
	MOVSD 32(AX), X4
	UNPCKLPD X4, X4
	MOVSD 40(AX), X5
	UNPCKLPD X5, X5
	MOVSD 48(AX), X6
	UNPCKLPD X6, X6
	MOVSD 56(AX), X7
	UNPCKLPD X7, X7

	MOVQ ci+0(FP), DI
	MOVQ b+8(FP), SI
	MOVQ ldb+16(FP), DX
	SHLQ $3, DX            // row stride in bytes
	LEAQ (SI)(DX*1), R8    // row 1
	LEAQ (R8)(DX*1), R9    // row 2
	LEAQ (R9)(DX*1), R10   // row 3
	LEAQ (R10)(DX*1), R11  // row 4
	LEAQ (R11)(DX*1), R12  // row 5
	LEAQ (R12)(DX*1), R13  // row 6
	LEAQ (R13)(DX*1), AX   // row 7 (AX free after broadcasts)

	MOVQ n+24(FP), CX
	XORQ BX, BX            // byte offset
	MOVQ CX, DX
	ANDQ $-4, DX
	SHLQ $3, DX            // end offset of the 4-element loop
	CMPQ BX, DX
	JGE  paircheck

quad:
	// Two independent accumulators (X8: j, j+1; X10: j+2, j+3).
	MOVUPD (DI)(BX*1), X8
	MOVUPD 16(DI)(BX*1), X10
	MOVUPD (SI)(BX*1), X9
	MOVUPD 16(SI)(BX*1), X11
	MULPD X0, X9
	MULPD X0, X11
	ADDPD X9, X8
	ADDPD X11, X10
	MOVUPD (R8)(BX*1), X9
	MOVUPD 16(R8)(BX*1), X11
	MULPD X1, X9
	MULPD X1, X11
	ADDPD X9, X8
	ADDPD X11, X10
	MOVUPD (R9)(BX*1), X9
	MOVUPD 16(R9)(BX*1), X11
	MULPD X2, X9
	MULPD X2, X11
	ADDPD X9, X8
	ADDPD X11, X10
	MOVUPD (R10)(BX*1), X9
	MOVUPD 16(R10)(BX*1), X11
	MULPD X3, X9
	MULPD X3, X11
	ADDPD X9, X8
	ADDPD X11, X10
	MOVUPD (R11)(BX*1), X9
	MOVUPD 16(R11)(BX*1), X11
	MULPD X4, X9
	MULPD X4, X11
	ADDPD X9, X8
	ADDPD X11, X10
	MOVUPD (R12)(BX*1), X9
	MOVUPD 16(R12)(BX*1), X11
	MULPD X5, X9
	MULPD X5, X11
	ADDPD X9, X8
	ADDPD X11, X10
	MOVUPD (R13)(BX*1), X9
	MOVUPD 16(R13)(BX*1), X11
	MULPD X6, X9
	MULPD X6, X11
	ADDPD X9, X8
	ADDPD X11, X10
	MOVUPD (AX)(BX*1), X9
	MOVUPD 16(AX)(BX*1), X11
	MULPD X7, X9
	MULPD X7, X11
	ADDPD X9, X8
	ADDPD X11, X10
	MOVUPD X8, (DI)(BX*1)
	MOVUPD X10, 16(DI)(BX*1)
	ADDQ $32, BX
	CMPQ BX, DX
	JL   quad

paircheck:
	TESTQ $2, CX
	JZ   scalarcheck
	MOVUPD (DI)(BX*1), X8
	MOVUPD (SI)(BX*1), X9
	MULPD X0, X9
	ADDPD X9, X8
	MOVUPD (R8)(BX*1), X9
	MULPD X1, X9
	ADDPD X9, X8
	MOVUPD (R9)(BX*1), X9
	MULPD X2, X9
	ADDPD X9, X8
	MOVUPD (R10)(BX*1), X9
	MULPD X3, X9
	ADDPD X9, X8
	MOVUPD (R11)(BX*1), X9
	MULPD X4, X9
	ADDPD X9, X8
	MOVUPD (R12)(BX*1), X9
	MULPD X5, X9
	ADDPD X9, X8
	MOVUPD (R13)(BX*1), X9
	MULPD X6, X9
	ADDPD X9, X8
	MOVUPD (AX)(BX*1), X9
	MULPD X7, X9
	ADDPD X9, X8
	MOVUPD X8, (DI)(BX*1)
	ADDQ $16, BX

scalarcheck:
	TESTQ $1, CX
	JZ   done
	MOVSD (DI)(BX*1), X8
	MOVSD (SI)(BX*1), X9
	MULSD X0, X9
	ADDSD X9, X8
	MOVSD (R8)(BX*1), X9
	MULSD X1, X9
	ADDSD X9, X8
	MOVSD (R9)(BX*1), X9
	MULSD X2, X9
	ADDSD X9, X8
	MOVSD (R10)(BX*1), X9
	MULSD X3, X9
	ADDSD X9, X8
	MOVSD (R11)(BX*1), X9
	MULSD X4, X9
	ADDSD X9, X8
	MOVSD (R12)(BX*1), X9
	MULSD X5, X9
	ADDSD X9, X8
	MOVSD (R13)(BX*1), X9
	MULSD X6, X9
	ADDSD X9, X8
	MOVSD (AX)(BX*1), X9
	MULSD X7, X9
	ADDSD X9, X8
	MOVSD X8, (DI)(BX*1)

done:
	RET

// func axpyPanel8AVX2(ci *float64, b *float64, ldb, n int, a *[8]float64)
//
// The 4-lane widening of axpyPanel8SSE2. The accumulation is purely
// element-wise — each lane carries one element's private chain
// ci[j] + a0·b0[j] + … + a7·b7[j] with the same left association and no
// fusing (VMULPD then VADDPD, never FMA) — so the results are bitwise
// identical to the SSE2 and pure-Go paths at any vector width. Elements
// go eight per iteration (two independent four-lane accumulators), then
// four-lane, two-lane and scalar tails, all VEX-encoded to avoid
// SSE/AVX transition stalls. VZEROUPPER before returning to Go code.
TEXT ·axpyPanel8AVX2(SB), NOSPLIT, $0-40
	// Broadcast the eight coefficients into Y0..Y7.
	MOVQ a+32(FP), AX
	VBROADCASTSD 0(AX), Y0
	VBROADCASTSD 8(AX), Y1
	VBROADCASTSD 16(AX), Y2
	VBROADCASTSD 24(AX), Y3
	VBROADCASTSD 32(AX), Y4
	VBROADCASTSD 40(AX), Y5
	VBROADCASTSD 48(AX), Y6
	VBROADCASTSD 56(AX), Y7

	MOVQ ci+0(FP), DI
	MOVQ b+8(FP), SI
	MOVQ ldb+16(FP), DX
	SHLQ $3, DX            // row stride in bytes
	LEAQ (SI)(DX*1), R8    // row 1
	LEAQ (R8)(DX*1), R9    // row 2
	LEAQ (R9)(DX*1), R10   // row 3
	LEAQ (R10)(DX*1), R11  // row 4
	LEAQ (R11)(DX*1), R12  // row 5
	LEAQ (R12)(DX*1), R13  // row 6
	LEAQ (R13)(DX*1), AX   // row 7 (AX free after broadcasts)

	MOVQ n+24(FP), CX
	XORQ BX, BX            // byte offset
	MOVQ CX, DX
	ANDQ $-8, DX
	SHLQ $3, DX            // end offset of the 8-element loop
	CMPQ BX, DX
	JGE  avx2quadcheck

avx2octa:
	// Two independent accumulators (Y8: j..j+3, Y10: j+4..j+7).
	VMOVUPD (DI)(BX*1), Y8
	VMOVUPD 32(DI)(BX*1), Y10
	VMOVUPD (SI)(BX*1), Y9
	VMOVUPD 32(SI)(BX*1), Y11
	VMULPD Y0, Y9, Y9
	VMULPD Y0, Y11, Y11
	VADDPD Y9, Y8, Y8
	VADDPD Y11, Y10, Y10
	VMOVUPD (R8)(BX*1), Y9
	VMOVUPD 32(R8)(BX*1), Y11
	VMULPD Y1, Y9, Y9
	VMULPD Y1, Y11, Y11
	VADDPD Y9, Y8, Y8
	VADDPD Y11, Y10, Y10
	VMOVUPD (R9)(BX*1), Y9
	VMOVUPD 32(R9)(BX*1), Y11
	VMULPD Y2, Y9, Y9
	VMULPD Y2, Y11, Y11
	VADDPD Y9, Y8, Y8
	VADDPD Y11, Y10, Y10
	VMOVUPD (R10)(BX*1), Y9
	VMOVUPD 32(R10)(BX*1), Y11
	VMULPD Y3, Y9, Y9
	VMULPD Y3, Y11, Y11
	VADDPD Y9, Y8, Y8
	VADDPD Y11, Y10, Y10
	VMOVUPD (R11)(BX*1), Y9
	VMOVUPD 32(R11)(BX*1), Y11
	VMULPD Y4, Y9, Y9
	VMULPD Y4, Y11, Y11
	VADDPD Y9, Y8, Y8
	VADDPD Y11, Y10, Y10
	VMOVUPD (R12)(BX*1), Y9
	VMOVUPD 32(R12)(BX*1), Y11
	VMULPD Y5, Y9, Y9
	VMULPD Y5, Y11, Y11
	VADDPD Y9, Y8, Y8
	VADDPD Y11, Y10, Y10
	VMOVUPD (R13)(BX*1), Y9
	VMOVUPD 32(R13)(BX*1), Y11
	VMULPD Y6, Y9, Y9
	VMULPD Y6, Y11, Y11
	VADDPD Y9, Y8, Y8
	VADDPD Y11, Y10, Y10
	VMOVUPD (AX)(BX*1), Y9
	VMOVUPD 32(AX)(BX*1), Y11
	VMULPD Y7, Y9, Y9
	VMULPD Y7, Y11, Y11
	VADDPD Y9, Y8, Y8
	VADDPD Y11, Y10, Y10
	VMOVUPD Y8, (DI)(BX*1)
	VMOVUPD Y10, 32(DI)(BX*1)
	ADDQ $64, BX
	CMPQ BX, DX
	JL   avx2octa

avx2quadcheck:
	TESTQ $4, CX
	JZ   avx2paircheck
	VMOVUPD (DI)(BX*1), Y8
	VMOVUPD (SI)(BX*1), Y9
	VMULPD Y0, Y9, Y9
	VADDPD Y9, Y8, Y8
	VMOVUPD (R8)(BX*1), Y9
	VMULPD Y1, Y9, Y9
	VADDPD Y9, Y8, Y8
	VMOVUPD (R9)(BX*1), Y9
	VMULPD Y2, Y9, Y9
	VADDPD Y9, Y8, Y8
	VMOVUPD (R10)(BX*1), Y9
	VMULPD Y3, Y9, Y9
	VADDPD Y9, Y8, Y8
	VMOVUPD (R11)(BX*1), Y9
	VMULPD Y4, Y9, Y9
	VADDPD Y9, Y8, Y8
	VMOVUPD (R12)(BX*1), Y9
	VMULPD Y5, Y9, Y9
	VADDPD Y9, Y8, Y8
	VMOVUPD (R13)(BX*1), Y9
	VMULPD Y6, Y9, Y9
	VADDPD Y9, Y8, Y8
	VMOVUPD (AX)(BX*1), Y9
	VMULPD Y7, Y9, Y9
	VADDPD Y9, Y8, Y8
	VMOVUPD Y8, (DI)(BX*1)
	ADDQ $32, BX

avx2paircheck:
	TESTQ $2, CX
	JZ   avx2scalarcheck
	VMOVUPD (DI)(BX*1), X8
	VMOVUPD (SI)(BX*1), X9
	VMULPD X0, X9, X9
	VADDPD X9, X8, X8
	VMOVUPD (R8)(BX*1), X9
	VMULPD X1, X9, X9
	VADDPD X9, X8, X8
	VMOVUPD (R9)(BX*1), X9
	VMULPD X2, X9, X9
	VADDPD X9, X8, X8
	VMOVUPD (R10)(BX*1), X9
	VMULPD X3, X9, X9
	VADDPD X9, X8, X8
	VMOVUPD (R11)(BX*1), X9
	VMULPD X4, X9, X9
	VADDPD X9, X8, X8
	VMOVUPD (R12)(BX*1), X9
	VMULPD X5, X9, X9
	VADDPD X9, X8, X8
	VMOVUPD (R13)(BX*1), X9
	VMULPD X6, X9, X9
	VADDPD X9, X8, X8
	VMOVUPD (AX)(BX*1), X9
	VMULPD X7, X9, X9
	VADDPD X9, X8, X8
	VMOVUPD X8, (DI)(BX*1)
	ADDQ $16, BX

avx2scalarcheck:
	TESTQ $1, CX
	JZ   avx2done
	VMOVSD (DI)(BX*1), X8
	VMOVSD (SI)(BX*1), X9
	VMULSD X0, X9, X9
	VADDSD X9, X8, X8
	VMOVSD (R8)(BX*1), X9
	VMULSD X1, X9, X9
	VADDSD X9, X8, X8
	VMOVSD (R9)(BX*1), X9
	VMULSD X2, X9, X9
	VADDSD X9, X8, X8
	VMOVSD (R10)(BX*1), X9
	VMULSD X3, X9, X9
	VADDSD X9, X8, X8
	VMOVSD (R11)(BX*1), X9
	VMULSD X4, X9, X9
	VADDSD X9, X8, X8
	VMOVSD (R12)(BX*1), X9
	VMULSD X5, X9, X9
	VADDSD X9, X8, X8
	VMOVSD (R13)(BX*1), X9
	VMULSD X6, X9, X9
	VADDSD X9, X8, X8
	VMOVSD (AX)(BX*1), X9
	VMULSD X7, X9, X9
	VADDSD X9, X8, X8
	VMOVSD X8, (DI)(BX*1)

avx2done:
	VZEROUPPER
	RET

// func cpuid(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxIn+0(FP), AX
	MOVL ecxIn+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET
