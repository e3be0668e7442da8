//go:build amd64

#include "textflag.h"

// H.264 luma deblocking of the up-to-four edges of one macroblock in one
// direction. An edge has 16 segments (lanes): rows of a vertical edge,
// columns of a horizontal one. The normal filter (bS < 4) runs in byte
// lanes, all 16 segments in one register, with its one wide sum, the
// raw p0/q0 delta, widened to words; the strong filter (bS == 4, which
// the decoder gives only a macroblock's boundary edge) runs in word
// lanes, eight segments at a time. Every result is bit-identical to the scalar reference:
//
//   - |a-b| is (a -sat b) | (b -sat a); |a-b| < t is
//     (|a-b| -sat (t-1)) == 0 for t in [1, 255].
//   - delta = clip3(-tc, tc, (4(q0-p0) + (p1-q1) + 4) >> 3) is computed
//     in words; VPACKSSWB saturates it to [-128, 127], which the clip to
//     tc <= 27 makes exact. clip1(p0 + delta) is
//     (p0 +sat max(delta, 0)) -sat max(-delta, 0), and q0 alike.
//   - p1 + clip3(-tc0, tc0, (p2 + ((p0+q0+1)>>1) - 2p1) >> 1) is
//     clip3(p1 - tc0, p1 + tc0, t) with t = (p2 + avg(p0, q0)) >> 1,
//     and t in [0, 255] makes saturating bounds exact; t is VPAVGB's
//     rounded-up mean less the odd bit (p2 ^ avg) & 1.
//   - The strong taps are word sums of at most 2044 (2p3+3p2+p1+p0+q0+4)
//     and VPACKUSWB performs the final clampByte exactly.
//
// Vertical edges are transposed into a stack buffer once per macroblock
// call, so both directions filter rows of lanes.

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

// Broadcast the low byte of the int32 argument arg to sixteen bytes
// stored at slot(SP).
#define DBK_BCASTB(arg, slot) \
	VMOVD   arg, X8           \
	VPXOR   X9, X9, X9        \
	VPSHUFB X9, X8, X8        \
	VMOVDQU X8, slot(SP)

// Transpose the 8x8 block at column offset col of the eight frame rows
// from DI (stride DX, R11 = 3*DX) into the buffer: column c of the block
// becomes the qword at b+16c(SP) (b is the buffer row of its first
// column plus 8 for rows 8..15). Clobbers AX.
#define DBK_TIN(col, b) \
	LEAQ    (DI)(DX*4), AX      \
	VMOVQ   col(DI), X0         \
	VMOVQ   col(DI)(DX*1), X1   \
	VMOVQ   col(DI)(DX*2), X2   \
	VMOVQ   col(DI)(R11*1), X3  \
	VMOVQ   col(AX), X4         \
	VMOVQ   col(AX)(DX*1), X5   \
	VMOVQ   col(AX)(DX*2), X6   \
	VMOVQ   col(AX)(R11*1), X7  \
	DBK_T8X8                    \
	VMOVQ   X8, b(SP)           \
	VPEXTRQ $1, X8, b+16(SP)    \
	VMOVQ   X9, b+32(SP)        \
	VPEXTRQ $1, X9, b+48(SP)    \
	VMOVQ   X10, b+64(SP)       \
	VPEXTRQ $1, X10, b+80(SP)   \
	VMOVQ   X11, b+96(SP)       \
	VPEXTRQ $1, X11, b+112(SP)

// The inverse of DBK_TIN.
#define DBK_TOUT(col, b) \
	VMOVQ   b(SP), X0                  \
	VMOVQ   b+16(SP), X1               \
	VMOVQ   b+32(SP), X2               \
	VMOVQ   b+48(SP), X3               \
	VMOVQ   b+64(SP), X4               \
	VMOVQ   b+80(SP), X5               \
	VMOVQ   b+96(SP), X6               \
	VMOVQ   b+112(SP), X7              \
	DBK_T8X8                           \
	LEAQ    (DI)(DX*4), AX             \
	VMOVQ   X8, col(DI)                \
	VPEXTRQ $1, X8, col(DI)(DX*1)      \
	VMOVQ   X9, col(DI)(DX*2)          \
	VPEXTRQ $1, X9, col(DI)(R11*1)     \
	VMOVQ   X10, col(AX)               \
	VPEXTRQ $1, X10, col(AX)(DX*1)     \
	VMOVQ   X11, col(AX)(DX*2)         \
	VPEXTRQ $1, X11, col(AX)(R11*1)

// |a-b| -sat t into dst, for bytes; clobbers X11.
#define DBK_ADIFF(a, b, t, dst) \
	VPSUBUSB b, a, dst   \
	VPSUBUSB a, b, X11   \
	VPOR     X11, dst, dst \
	VPSUBUSB t, dst, dst

// func deblockMBAVX(p *byte, stride int, alpha, beta int32, tc0 *[4]int32, edges, strong, vertical int32) (m0, mP, mQ uint64)
//
// p is the macroblock's top-left sample. A horizontal call
// (vertical == 0) filters straight in the frame: edge e's rows p3..q3
// are rows 4e-4..4e+3 of the macroblock, each row's 16 samples the
// lanes. A vertical call first transposes the macroblock's 16 rows into
// the stack buffer, buffer row c holding frame column x0-8+c of all 16
// rows (columns x0-8..x0-1 only when edge 0 is on, x0+8..x0+15 only when
// edge 2 or 3 is), runs the same edge
// loop over the buffer's rows, and transposes back if any edge wrote.
// Lanes a segment does not write keep their original value. Returns the
// masks with bit 16e+i = edge e, segment i.
//
// Stack frame: 0 alpha and 16 beta as words, 32..95 tc0 of edges 0..3
// as bytes, 96 p3 and 112 q3 (a strong half's outer samples, spilled to
// free registers for the taps), 128 alpha-1 and 144 beta-1 as bytes,
// 160 bytes of 1, 176 words of 4, 192 the dirty flag, 208..591 the
// transposed macroblock of a vertical call (24 rows of 16 bytes).
//
// Registers in the edge loop: SI the current edge's p3 row, R13/BX the
// lane-row stride and three times it, CX = 16e (+8 in a strong edge's
// second half: the mask shift), DI a strong half's p3 row, R8/R9/R10
// the m0/mP/mQ accumulators, AX and R12 scratch. DX/R11 hold the frame
// stride and three times it for the transposes.
TEXT ·deblockMBAVX(SB), NOSPLIT, $592-72
	MOVQ  p+0(FP), DI
	MOVQ  stride+8(FP), DX
	LEAQ  (DX)(DX*2), R11 // 3*stride
	DBK_BCAST(alpha+16(FP), 0)
	DBK_BCAST(beta+20(FP), 16)
	MOVQ  tc0+24(FP), AX
	DBK_BCASTB(0(AX), 32)
	DBK_BCASTB(4(AX), 48)
	DBK_BCASTB(8(AX), 64)
	DBK_BCASTB(12(AX), 80)
	MOVL  alpha+16(FP), AX
	DECL  AX
	DBK_BCASTB(AX, 128)
	MOVL  beta+20(FP), AX
	DECL  AX
	DBK_BCASTB(AX, 144)
	MOVL  $1, AX
	DBK_BCASTB(AX, 160)
	MOVL  $4, AX
	DBK_BCAST(AX, 176)
	XORQ  R8, R8          // m0
	XORQ  R9, R9          // mP
	XORQ  R10, R10        // mQ
	MOVQ  $0, 192(SP)
	MOVL  vertical+40(FP), AX
	TESTL AX, AX
	JNZ   vin
	MOVQ  DX, R13
	MOVQ  R11, BX
	MOVQ  DX, R12
	SHLQ  $2, R12
	MOVQ  DI, SI
	SUBQ  R12, SI         // row -4: edge 0's p3 row
	JMP   edges

vin:
	MOVL  edges+32(FP), AX
	TESTL $1, AX
	JZ    vinB
	DBK_TIN(-8, 208)
	LEAQ  (DI)(DX*8), DI
	DBK_TIN(-8, 216)
	MOVQ  p+0(FP), DI

vinB:
	DBK_TIN(0, 336)
	LEAQ  (DI)(DX*8), DI
	DBK_TIN(0, 344)
	MOVL  edges+32(FP), AX
	TESTL $0xc, AX
	JZ    vinC            // edges 0 and 1 read no column right of x0+7
	MOVQ  p+0(FP), DI
	DBK_TIN(8, 464)
	LEAQ  (DI)(DX*8), DI
	DBK_TIN(8, 472)

vinC:
	MOVQ  $16, R13
	MOVQ  $48, BX
	LEAQ  272(SP), SI     // buffer row 4 (column x0-4): edge 0's p3 row

edges:
	XORQ  CX, CX

edge:
	MOVQ  CX, R12
	SHRQ  $4, R12         // edge index
	MOVL  edges+32(FP), AX
	BTL   R12, AX
	JCC   skipedge
	MOVL  strong+36(FP), AX
	BTL   R12, AX
	JCS   strongedge

	// Normal filter (bS < 4), 16 byte lanes: p2..q2 in X1..X6.
	VMOVDQU  (SI)(R13*1), X1
	VMOVDQU  (SI)(R13*2), X2
	VMOVDQU  (SI)(BX*1), X3
	LEAQ     (SI)(R13*4), AX
	VMOVDQU  (AX), X4
	VMOVDQU  (AX)(R13*1), X5
	VMOVDQU  (AX)(R13*2), X6
	VMOVDQU  128(SP), X8   // alpha-1
	VMOVDQU  144(SP), X9   // beta-1
	VPXOR    X15, X15, X15

	// m0 = |p0-q0| < alpha && |p1-p0| < beta && |q1-q0| < beta
	DBK_ADIFF(X3, X4, X8, X10)
	DBK_ADIFF(X2, X3, X9, X12)
	VPOR     X12, X10, X10
	DBK_ADIFF(X5, X4, X9, X12)
	VPOR     X12, X10, X10
	VPCMPEQB X15, X10, X12
	VPMOVMSKB X12, AX
	TESTL    AX, AX
	JZ       skipedge

	// ap = |p2-p0| < beta, aq = |q2-q0| < beta, both within m0.
	DBK_ADIFF(X1, X3, X9, X13)
	VPCMPEQB X15, X13, X13
	VPAND    X12, X13, X13
	DBK_ADIFF(X6, X4, X9, X14)
	VPCMPEQB X15, X14, X14
	VPAND    X12, X14, X14

	// delta = clip3(-tc, tc, raw), tc = tc0 + ap + aq (the masks are -1),
	// zero outside m0.
	VPUNPCKLBW X15, X4, X8
	VPUNPCKLBW X15, X3, X9
	VPSUBW     X9, X8, X8
	VPSLLW     $2, X8, X8
	VPUNPCKLBW X15, X2, X9
	VPADDW     X9, X8, X8
	VPUNPCKLBW X15, X5, X9
	VPSUBW     X9, X8, X8
	VPADDW     176(SP), X8, X8
	VPSRAW     $3, X8, X8  // raw, lanes 0..7
	VPUNPCKHBW X15, X4, X10
	VPUNPCKHBW X15, X3, X9
	VPSUBW     X9, X10, X10
	VPSLLW     $2, X10, X10
	VPUNPCKHBW X15, X2, X9
	VPADDW     X9, X10, X10
	VPUNPCKHBW X15, X5, X9
	VPSUBW     X9, X10, X10
	VPADDW     176(SP), X10, X10
	VPSRAW     $3, X10, X10 // raw, lanes 8..15
	VPACKSSWB  X10, X8, X8
	VMOVDQU    32(SP)(CX*1), X7 // this edge's tc0
	VPSUBB     X13, X7, X11
	VPSUBB     X14, X11, X11    // tc
	VPMINSB    X11, X8, X8
	VPSUBB     X11, X15, X11    // -tc
	VPMAXSB    X11, X8, X8
	VPAND      X12, X8, X8      // delta
	VPMAXSB    X15, X8, X9      // max(delta, 0)
	VPSUBB     X8, X15, X10
	VPMAXSB    X15, X10, X10    // max(-delta, 0)

	// p1, q1 where ap, aq: clip3(p1 - tc0, p1 + tc0, (p2 + avg) >> 1).
	VPAVGB     X4, X3, X0       // avg = (p0+q0+1)>>1
	VMOVDQU    160(SP), X15     // bytes of 1
	VPAVGB     X0, X1, X8
	VPXOR      X0, X1, X11
	VPAND      X15, X11, X11
	VPSUBB     X11, X8, X8      // (p2 + avg) >> 1
	VPSUBUSB   X7, X2, X11
	VPMAXUB    X11, X8, X8
	VPADDUSB   X7, X2, X11
	VPMINUB    X11, X8, X8
	VPBLENDVB  X13, X8, X2, X2
	VPAVGB     X0, X6, X8
	VPXOR      X0, X6, X11
	VPAND      X15, X11, X11
	VPSUBB     X11, X8, X8      // (q2 + avg) >> 1
	VPSUBUSB   X7, X5, X11
	VPMAXUB    X11, X8, X8
	VPADDUSB   X7, X5, X11
	VPMINUB    X11, X8, X8
	VPBLENDVB  X14, X8, X5, X5

	// p0, q0: clip1(p0 + delta), clip1(q0 - delta).
	VPADDUSB   X9, X3, X3
	VPSUBUSB   X10, X3, X3
	VPSUBUSB   X9, X4, X4
	VPADDUSB   X10, X4, X4

	VMOVDQU    X2, (SI)(R13*2)
	VMOVDQU    X3, (SI)(BX*1)
	LEAQ       (SI)(R13*4), AX
	VMOVDQU    X4, (AX)
	VMOVDQU    X5, (AX)(R13*1)
	VPMOVMSKB  X12, AX
	SHLQ       CX, AX
	ORQ        AX, R8
	VPMOVMSKB  X13, AX
	SHLQ       CX, AX
	ORQ        AX, R9
	VPMOVMSKB  X14, AX
	SHLQ       CX, AX
	ORQ        AX, R10
	MOVQ       $1, 192(SP)

skipedge:
	ADDQ  $16, CX

nextedge:
	LEAQ  (SI)(R13*4), SI
	CMPQ  CX, $64
	JLT   edge

	MOVL  vertical+40(FP), AX
	TESTL AX, AX
	JZ    done
	CMPQ  192(SP), $0
	JEQ   done
	MOVQ  p+0(FP), DI
	MOVL  edges+32(FP), AX
	TESTL $1, AX
	JZ    voutB
	DBK_TOUT(-8, 208)
	LEAQ  (DI)(DX*8), DI
	DBK_TOUT(-8, 216)
	MOVQ  p+0(FP), DI

voutB:
	DBK_TOUT(0, 336)
	LEAQ  (DI)(DX*8), DI
	DBK_TOUT(0, 344)
	MOVL  edges+32(FP), AX
	TESTL $0xc, AX
	JZ    done
	MOVQ  p+0(FP), DI
	DBK_TOUT(8, 464)
	LEAQ  (DI)(DX*8), DI
	DBK_TOUT(8, 472)

done:
	MOVQ  R8, m0+48(FP)
	MOVQ  R9, mP+56(FP)
	MOVQ  R10, mQ+64(FP)
	RET

	// Strong filter (bS == 4), eight word lanes per half: half h is the
	// lanes at byte offset 8h of each row.
strongedge:
	MOVQ  SI, DI

shalf:
	VPMOVZXBW (DI), X0
	VPMOVZXBW (DI)(R13*1), X1
	VPMOVZXBW (DI)(R13*2), X2
	VPMOVZXBW (DI)(BX*1), X3
	LEAQ  (DI)(R13*4), AX
	VPMOVZXBW (AX), X4
	VPMOVZXBW (AX)(R13*1), X5
	VPMOVZXBW (AX)(R13*2), X6
	VPMOVZXBW (AX)(BX*1), X7
	VMOVDQU  X0, 96(SP)
	VMOVDQU  X7, 112(SP)
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
	JZ        shalfdone

	// ap = |p2-p0| < beta, aq = |q2-q0| < beta, both within m0.
	VPSUBW   X3, X1, X10
	VPABSW   X10, X10
	VPCMPGTW X10, X9, X13
	VPAND    X12, X13, X13
	VPSUBW   X4, X6, X10
	VPABSW   X10, X10
	VPCMPGTW X10, X9, X14
	VPAND    X12, X14, X14
	// The p1/p2 (q1/q2) taps need
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
	VMOVDQU  96(SP), X7
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
	VMOVDQU  112(SP), X7
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

	// Lane bits: m0 and mP from one pack, mQ from another.
	VPACKSSWB X14, X14, X11
	VPMOVMSKB X11, R12
	MOVBQZX   R12, R12
	SHLQ      CX, R12
	ORQ       R12, R10
	VPACKSSWB X13, X12, X10
	VPMOVMSKB X10, AX
	MOVBQZX   AX, R12
	SHLQ      CX, R12
	ORQ       R12, R8
	SHRL      $8, AX
	SHLQ      CX, AX
	ORQ       AX, R9
	MOVQ      $1, 192(SP)
	VPACKUSWB X1, X1, X1
	VPACKUSWB X2, X2, X2
	VPACKUSWB X3, X3, X3
	VPACKUSWB X4, X4, X4
	VPACKUSWB X5, X5, X5
	VPACKUSWB X6, X6, X6
	VMOVQ     X1, (DI)(R13*1)
	VMOVQ     X2, (DI)(R13*2)
	VMOVQ     X3, (DI)(BX*1)
	LEAQ      (DI)(R13*4), AX
	VMOVQ     X4, (AX)
	VMOVQ     X5, (AX)(R13*1)
	VMOVQ     X6, (AX)(R13*2)

shalfdone:
	ADDQ  $8, CX
	TESTQ $8, CX
	JZ    nextedge        // CX went 16e+8 -> 16(e+1): both halves done
	ADDQ  $8, DI
	JMP   shalf
