//go:build amd64

#include "textflag.h"

// H.264 luma deblocking of one whole macroblock edge: 16 segments,
// evaluated as two halves of eight. Word-lane layout throughout: X0..X7
// hold p3 p2 p1 p0 q0 q1 q2 q3 zero-extended to int16, lane l = segment
// 8h+l (a row of a vertical edge, a column of a horizontal one). Every
// tap is integer arithmetic that stays inside int16 (the widest sum,
// 2p3+3p2+p1+p0+q0+4, is at most 2044), so results are bit-identical to
// the scalar reference; VPACKUSWB performs the final clampByte exactly.
// VEX-128 forms only (VPABSW, VPBLENDVB, VPMINSW, VPMOVZXBW are AVX
// encodings of SSSE3/SSE4.1 ops), so the AVX gate covers them all.
//
// Stack frame: 0 alpha, 16 beta, 32 tc0 (each broadcast to eight words),
// 48 p3, 64 q3 (the current half's outer samples, spilled to free
// registers for the taps).

// 8x8 byte transpose: the low qwords of X0..X7 are rows r0..r7; leaves
// X8 = [col0 | col1], X9 = [col2 | col3], X10 = [col4 | col5],
// X11 = [col6 | col7] (column c = byte c of every row, as one qword).
// Clobbers X12..X15. Its own inverse: columns in, row pairs out.
#define DBK_T8X8 \
	VPUNPCKLBW X1, X0, X8    \
	VPUNPCKLBW X3, X2, X9    \
	VPUNPCKLBW X5, X4, X10   \
	VPUNPCKLBW X7, X6, X11   \
	VPUNPCKLWD X9, X8, X12   \
	VPUNPCKHWD X9, X8, X13   \
	VPUNPCKLWD X11, X10, X14 \
	VPUNPCKHWD X11, X10, X15 \
	VPUNPCKLDQ X14, X12, X8  \
	VPUNPCKHDQ X14, X12, X9  \
	VPUNPCKLDQ X15, X13, X10 \
	VPUNPCKHDQ X15, X13, X11

// Broadcast the int32 argument arg to eight words stored at slot(SP).
#define DBK_BCAST(arg, slot) \
	VMOVD    arg, X8          \
	VPSHUFLW $0x00, X8, X8    \
	VPSHUFD  $0x00, X8, X8    \
	VMOVDQU  X8, slot(SP)

// func deblockEdge16AVX(p *byte, stride int, alpha, beta, tc0, strong, vertical int32) uint64
//
// Horizontal edge (vertical == 0): row k = p + k*stride (k = 0..7) holds
// p3..q3 of the 16 columns. Vertical edge: row i = p + i*stride
// (i = 0..15) holds the eight contiguous samples p3..q3 of segment i;
// each half's 8x8 block is transposed into the word-lane layout and
// back. Results are blended per lane under the write masks, so every
// sample a segment does not write keeps its original value, and stores
// write back whole rows. Returns m0 | mP<<16 | mQ<<32, bit i = segment i.
TEXT ·deblockEdge16AVX(SB), NOSPLIT, $80-48
	MOVQ  p+0(FP), DI
	MOVQ  stride+8(FP), DX
	LEAQ  (DX)(DX*2), R11 // 3*stride
	DBK_BCAST(alpha+16(FP), 0)
	DBK_BCAST(beta+20(FP), 16)
	DBK_BCAST(tc0+24(FP), 32)
	MOVL  vertical+32(FP), BX
	XORQ  CX, CX          // lane offset of the current half: 0, then 8
	XORQ  R8, R8          // m0
	XORQ  R9, R9          // mP
	XORQ  R10, R10        // mQ

half:
	LEAQ  (DI)(DX*4), SI  // row 4 of this half
	TESTL BX, BX
	JNZ   vload
	VPMOVZXBW (DI), X0
	VPMOVZXBW (DI)(DX*1), X1
	VPMOVZXBW (DI)(DX*2), X2
	VPMOVZXBW (DI)(R11*1), X3
	VPMOVZXBW (SI), X4
	VPMOVZXBW (SI)(DX*1), X5
	VPMOVZXBW (SI)(DX*2), X6
	VPMOVZXBW (SI)(R11*1), X7
	JMP   filter

vload:
	VMOVQ (DI), X0
	VMOVQ (DI)(DX*1), X1
	VMOVQ (DI)(DX*2), X2
	VMOVQ (DI)(R11*1), X3
	VMOVQ (SI), X4
	VMOVQ (SI)(DX*1), X5
	VMOVQ (SI)(DX*2), X6
	VMOVQ (SI)(R11*1), X7
	DBK_T8X8
	VPXOR      X15, X15, X15
	VPUNPCKLBW X15, X8, X0
	VPUNPCKHBW X15, X8, X1
	VPUNPCKLBW X15, X9, X2
	VPUNPCKHBW X15, X9, X3
	VPUNPCKLBW X15, X10, X4
	VPUNPCKHBW X15, X10, X5
	VPUNPCKLBW X15, X11, X6
	VPUNPCKHBW X15, X11, X7

filter:
	VMOVDQU  X0, 48(SP)
	VMOVDQU  X7, 64(SP)
	VMOVDQU  0(SP), X8    // alpha
	VMOVDQU  16(SP), X9   // beta

	// m0 = |p0-q0| < alpha && |p1-p0| < beta && |q1-q0| < beta
	VPSUBW    X4, X3, X10
	VPABSW    X10, X10
	VPCMPGTW  X10, X8, X12
	VPSUBW    X3, X2, X10
	VPABSW    X10, X10
	VPCMPGTW  X10, X9, X11
	VPAND     X11, X12, X12
	VPSUBW    X4, X5, X10
	VPABSW    X10, X10
	VPCMPGTW  X10, X9, X11
	VPAND     X11, X12, X12
	VPMOVMSKB X12, AX
	TESTL     AX, AX
	JZ        next

	// ap = |p2-p0| < beta, aq = |q2-q0| < beta, both within m0.
	VPSUBW   X3, X1, X10
	VPABSW   X10, X10
	VPCMPGTW X10, X9, X13
	VPAND    X12, X13, X13
	VPSUBW   X4, X6, X10
	VPABSW   X10, X10
	VPCMPGTW X10, X9, X14
	VPAND    X12, X14, X14
	CMPL     strong+28(FP), $0
	JNE      strong

	// Normal filter (bS < 4). tc = tc0 + ap + aq (the masks are -1).
	VMOVDQU  32(SP), X15  // tc0
	VPCMPEQW X11, X11, X11
	VPSRLW   $15, X11, X11
	VPSLLW   $2, X11, X11 // 4
	VPSUBW   X3, X4, X10  // q0-p0
	VPSLLW   $2, X10, X10
	VPADDW   X11, X10, X10
	VPSUBW   X5, X2, X11  // p1-q1
	VPADDW   X11, X10, X10
	VPSRAW   $3, X10, X10 // raw delta
	VPSUBW   X13, X15, X11
	VPSUBW   X14, X11, X11 // tc
	VPMINSW  X11, X10, X10
	VPXOR    X0, X0, X0
	VPSUBW   X11, X0, X11  // -tc
	VPMAXSW  X11, X10, X10 // delta = clip3(-tc, tc, raw)
	VPADDW   X10, X3, X0   // p0 + delta
	VPSUBW   X10, X4, X7   // q0 - delta
	VPAVGW   X4, X3, X10   // (p0+q0+1)>>1
	VPXOR    X8, X8, X8
	VPSUBW   X15, X8, X8   // -tc0
	VPADDW   X10, X1, X11
	VPSUBW   X2, X11, X11
	VPSUBW   X2, X11, X11
	VPSRAW   $1, X11, X11  // raw dp
	VPMINSW  X15, X11, X11
	VPMAXSW  X8, X11, X11
	VPADDW   X11, X2, X11  // p1 + dp
	VPADDW   X10, X6, X10
	VPSUBW   X5, X10, X10
	VPSUBW   X5, X10, X10
	VPSRAW   $1, X10, X10  // raw dq
	VPMINSW  X15, X10, X10
	VPMAXSW  X8, X10, X10
	VPADDW   X10, X5, X10  // q1 + dq
	VPBLENDVB X13, X11, X2, X2
	VPBLENDVB X12, X0, X3, X3
	VPBLENDVB X12, X7, X4, X4
	VPBLENDVB X14, X10, X5, X5
	JMP      store

strong:
	// Strong filter (bS == 4). The p1/p2 (q1/q2) taps need
	// |p0-q0| < (alpha>>2)+2 as well as ap (aq).
	VPCMPEQW X15, X15, X15
	VPSRLW   $15, X15, X15
	VPSLLW   $1, X15, X15  // 2
	VPSRLW   $2, X8, X10
	VPADDW   X15, X10, X10
	VPSUBW   X4, X3, X11
	VPABSW   X11, X11
	VPCMPGTW X11, X10, X10
	VPAND    X10, X13, X13 // mP
	VPAND    X10, X14, X14 // mQ
	VPADDW   X4, X3, X8    // A = p0+q0
	VPADDW   X2, X2, X0
	VPADDW   X3, X0, X0
	VPADDW   X5, X0, X0
	VPADDW   X15, X0, X0
	VPSRAW   $2, X0, X0    // (2p1+p0+q1+2)>>2
	VPADDW   X2, X8, X7
	VPADDW   X7, X7, X7
	VPADDW   X1, X7, X7
	VPADDW   X5, X7, X7
	VPADDW   X15, X7, X7
	VPADDW   X15, X7, X7
	VPSRAW   $3, X7, X7    // (p2+2p1+2A+q1+4)>>3
	VPBLENDVB X13, X7, X0, X0 // new p0
	VPADDW   X5, X5, X7
	VPADDW   X4, X7, X7
	VPADDW   X2, X7, X7
	VPADDW   X15, X7, X7
	VPSRAW   $2, X7, X7    // (2q1+q0+p1+2)>>2
	VPADDW   X5, X8, X9
	VPADDW   X9, X9, X9
	VPADDW   X6, X9, X9
	VPADDW   X2, X9, X9
	VPADDW   X15, X9, X9
	VPADDW   X15, X9, X9
	VPSRAW   $3, X9, X9    // (q2+2q1+2A+p1+4)>>3
	VPBLENDVB X14, X9, X7, X7 // new q0
	VPBLENDVB X12, X0, X3, X3
	VPBLENDVB X12, X7, X4, X4
	VPADDW   X1, X2, X0
	VPADDW   X8, X0, X0
	VPADDW   X15, X0, X0
	VPSRAW   $2, X0, X0    // (p2+p1+A+2)>>2
	VMOVDQU  48(SP), X7
	VPADDW   X7, X7, X7
	VPADDW   X1, X7, X7
	VPADDW   X1, X7, X7
	VPADDW   X1, X7, X7
	VPADDW   X2, X7, X7
	VPADDW   X8, X7, X7
	VPADDW   X15, X7, X7
	VPADDW   X15, X7, X7
	VPSRAW   $3, X7, X7    // (2p3+3p2+p1+A+4)>>3
	VPBLENDVB X13, X0, X2, X2
	VPBLENDVB X13, X7, X1, X1
	VPADDW   X6, X5, X0
	VPADDW   X8, X0, X0
	VPADDW   X15, X0, X0
	VPSRAW   $2, X0, X0    // (q2+q1+A+2)>>2
	VMOVDQU  64(SP), X7
	VPADDW   X7, X7, X7
	VPADDW   X6, X7, X7
	VPADDW   X6, X7, X7
	VPADDW   X6, X7, X7
	VPADDW   X5, X7, X7
	VPADDW   X8, X7, X7
	VPADDW   X15, X7, X7
	VPADDW   X15, X7, X7
	VPSRAW   $3, X7, X7    // (2q3+3q2+q1+A+4)>>3
	VPBLENDVB X14, X0, X5, X5
	VPBLENDVB X14, X7, X6, X6

store:
	// Lane bits: m0 and mP from one pack, mQ from another.
	VPACKSSWB X13, X12, X10
	VPMOVMSKB X10, AX
	VPACKSSWB X14, X14, X11
	VPMOVMSKB X11, R13
	MOVBQZX   AX, R12
	SHLQ      CX, R12
	ORQ       R12, R8
	SHRL      $8, AX
	SHLQ      CX, AX
	ORQ       AX, R9
	MOVBQZX   R13, R13
	SHLQ      CX, R13
	ORQ       R13, R10
	VPACKUSWB X1, X1, X1
	VPACKUSWB X2, X2, X2
	VPACKUSWB X3, X3, X3
	VPACKUSWB X4, X4, X4
	VPACKUSWB X5, X5, X5
	VPACKUSWB X6, X6, X6
	TESTL     BX, BX
	JNZ       vstore
	VMOVQ     X1, (DI)(DX*1)
	VMOVQ     X2, (DI)(DX*2)
	VMOVQ     X3, (DI)(R11*1)
	VMOVQ     X4, (SI)
	VMOVQ     X5, (SI)(DX*1)
	VMOVQ     X6, (SI)(DX*2)
	JMP       next

vstore:
	VMOVDQU   48(SP), X0
	VMOVDQU   64(SP), X7
	VPACKUSWB X0, X0, X0
	VPACKUSWB X7, X7, X7
	DBK_T8X8
	VMOVQ     X8, (DI)
	VPEXTRQ   $1, X8, (DI)(DX*1)
	VMOVQ     X9, (DI)(DX*2)
	VPEXTRQ   $1, X9, (DI)(R11*1)
	VMOVQ     X10, (SI)
	VPEXTRQ   $1, X10, (SI)(DX*1)
	VMOVQ     X11, (SI)(DX*2)
	VPEXTRQ   $1, X11, (SI)(R11*1)

next:
	TESTL CX, CX
	JNZ   done
	MOVL  $8, CX
	TESTL BX, BX
	JNZ   vnext
	ADDQ  $8, DI
	JMP   half

vnext:
	LEAQ  (DI)(DX*8), DI
	JMP   half

done:
	SHLQ  $16, R9
	SHLQ  $32, R10
	ORQ   R9, R8
	ORQ   R10, R8
	MOVQ  R8, ret+40(FP)
	RET
