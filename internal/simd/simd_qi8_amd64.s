//go:build amd64

#include "textflag.h"

// Int8 inference kernels (VEX encodings under the AVX gate). The GEMM
// is integer arithmetic and exact in any order. The float stages keep
// one lane per element, perform the scalar expression's operations in
// scalar order, and round with trunc + |fraction| >= 0.5 fix-up, which
// is math.Round (ties away from zero) bit for bit.

// Tail masks for a partial last group of four int32 outputs, indexed by
// out&3 (entry 0 is never used: a full group needs no mask).
DATA ·qTailMask+0(SB)/8, $0
DATA ·qTailMask+8(SB)/8, $0
DATA ·qTailMask+16(SB)/8, $0x00000000FFFFFFFF
DATA ·qTailMask+24(SB)/8, $0
DATA ·qTailMask+32(SB)/8, $0xFFFFFFFFFFFFFFFF
DATA ·qTailMask+40(SB)/8, $0
DATA ·qTailMask+48(SB)/8, $0xFFFFFFFFFFFFFFFF
DATA ·qTailMask+56(SB)/8, $0x00000000FFFFFFFF
GLOBL ·qTailMask(SB), RODATA|NOPTR, $64

// VPSHUFB control gathering the low byte of each int32 lane.
DATA ·qLowBytes+0(SB)/8, $0x808080800C080400
DATA ·qLowBytes+8(SB)/8, $0x8080808080808080
GLOBL ·qLowBytes(SB), RODATA|NOPTR, $16

DATA ·qSign+0(SB)/8, $0x8000000000000000
GLOBL ·qSign(SB), RODATA|NOPTR, $8

DATA ·qHalf+0(SB)/8, $0x3FE0000000000000
GLOBL ·qHalf(SB), RODATA|NOPTR, $8

DATA ·qOne+0(SB)/8, $0x3FF0000000000000
GLOBL ·qOne(SB), RODATA|NOPTR, $8

DATA ·qHi+0(SB)/8, $0x405FC00000000000 // 127.0
GLOBL ·qHi(SB), RODATA|NOPTR, $8

DATA ·qLo+0(SB)/8, $0xC060000000000000 // -128.0
GLOBL ·qLo(SB), RODATA|NOPTR, $8

DATA ·qAbs+0(SB)/8, $0x7FFFFFFFFFFFFFFF
GLOBL ·qAbs(SB), RODATA|NOPTR, $8

// QPAIR loads the activation pair at (SI)(DX*1) (LOAD is MOVWLZX for a
// full pair, MOVBLZX for an odd tail whose partner weight is zero),
// sign-extends it to two int16s and broadcasts the pair to X4.
#define QPAIR(LOAD) \
	LOAD      (SI)(DX*1), AX; \
	VMOVD     AX, X4; \
	VPMOVSXBW X4, X4; \
	VPSHUFD   $0, X4, X4

// QMADD4 adds one pair's products into the four output groups X0..X3
// from the packed weights at (BX).
#define QMADD4 \
	VPMADDWD (BX), X4, X5; \
	VPADDD   X5, X0, X0; \
	VPMADDWD 16(BX), X4, X6; \
	VPADDD   X6, X1, X1; \
	VPMADDWD 32(BX), X4, X7; \
	VPADDD   X7, X2, X2; \
	VPMADDWD 48(BX), X4, X5; \
	VPADDD   X5, X3, X3

// func qgemmAVX(acc *int32, x *int8, wp *int16, bp *int32, m, in, out int)
//
// acc[r][o] = bp[o] + sum_i w[o][i]*x[r][i] for r < m (m >= 1), with
// wp the [ceil(in/2)][outP][2] int16 pair packing and bp the bias
// padded to outP = out rounded up to 4. Each output owns one int32
// lane; outputs go sixteen at a time (X0..X3), then four at a time
// (X0), and a partial last group is stored under the qTailMask mask.
TEXT ·qgemmAVX(SB), NOSPLIT, $0-56
	MOVQ    acc+0(FP), DI
	MOVQ    x+8(FP), SI
	MOVQ    wp+16(FP), R8
	MOVQ    bp+24(FP), R9
	MOVQ    m+32(FP), R10
	MOVQ    in+40(FP), R11
	MOVQ    out+48(FP), R12
	MOVQ    R12, AX
	ANDQ    $3, AX
	SHLQ    $4, AX
	LEAQ    ·qTailMask(SB), BX
	VMOVDQU (BX)(AX*1), X8
	LEAQ    3(R12), R13
	ANDQ    $-4, R13
	SHLQ    $2, R13             // outP*4: pair stride in wp, bias bytes
	SHLQ    $2, R12             // out*4: acc row stride
qrow:
	XORQ CX, CX                 // byte offset of the current output group
qtile4:
	LEAQ    64(CX), AX
	CMPQ    AX, R13
	JGT     qtile1
	VMOVDQU (R9)(CX*1), X0
	VMOVDQU 16(R9)(CX*1), X1
	VMOVDQU 32(R9)(CX*1), X2
	VMOVDQU 48(R9)(CX*1), X3
	LEAQ    (R8)(CX*1), BX
	XORQ    DX, DX
q4pair:
	LEAQ 2(DX), AX
	CMPQ AX, R11
	JGT  q4odd
	QPAIR(MOVWLZX)
	QMADD4
	ADDQ R13, BX
	ADDQ $2, DX
	JMP  q4pair
q4odd:
	CMPQ DX, R11
	JGE  q4store
	QPAIR(MOVBLZX)
	QMADD4
q4store:
	VMOVDQU X0, (DI)(CX*1)
	VMOVDQU X1, 16(DI)(CX*1)
	VMOVDQU X2, 32(DI)(CX*1)
	LEAQ    64(CX), AX
	CMPQ    AX, R12
	JGT     q4part
	VMOVDQU X3, 48(DI)(CX*1)
	MOVQ    AX, CX
	JMP     qtile4
q4part:
	VMASKMOVPS X3, X8, 48(DI)(CX*1)
	MOVQ       AX, CX
	JMP        qtile4
qtile1:
	CMPQ    CX, R13
	JGE     qnext
	VMOVDQU (R9)(CX*1), X0
	LEAQ    (R8)(CX*1), BX
	XORQ    DX, DX
q1pair:
	LEAQ     2(DX), AX
	CMPQ     AX, R11
	JGT      q1odd
	QPAIR(MOVWLZX)
	VPMADDWD (BX), X4, X5
	VPADDD   X5, X0, X0
	ADDQ     R13, BX
	ADDQ     $2, DX
	JMP      q1pair
q1odd:
	CMPQ     DX, R11
	JGE      q1store
	QPAIR(MOVBLZX)
	VPMADDWD (BX), X4, X5
	VPADDD   X5, X0, X0
q1store:
	LEAQ    16(CX), AX
	CMPQ    AX, R12
	JGT     q1part
	VMOVDQU X0, (DI)(CX*1)
	MOVQ    AX, CX
	JMP     qtile1
q1part:
	VMASKMOVPS X0, X8, (DI)(CX*1)
	MOVQ       AX, CX
	JMP        qtile1
qnext:
	ADDQ R11, SI
	ADDQ R12, DI
	DECQ R10
	JNZ  qrow
	RET

// QROUND rounds Y0 half away from zero into Y1 (t = trunc(x); add
// copysign(1, x) where |x - t| >= 0.5, an ordered compare that is false
// for NaN and Inf), clamps to [Y13, Y14] with NaN kept (the rounded value
// is MAXPD/MINPD's second source, which they return on NaN), truncates to
// int32 (NaN -> 0x80000000) and stores each lane's low byte to (DI).
// Uses Y10 = 1.0, Y11 = sign mask, Y12 = 0.5, Y15 = abs mask, X9 =
// qLowBytes.
#define QROUND \
	VROUNDPD    $3, Y0, Y1; \
	VSUBPD      Y1, Y0, Y2; \
	VANDPD      Y15, Y2, Y2; \
	VCMPPD      $0x1D, Y12, Y2, Y2; \
	VANDPD      Y11, Y0, Y3; \
	VORPD       Y10, Y3, Y3; \
	VANDPD      Y2, Y3, Y3; \
	VADDPD      Y3, Y1, Y1; \
	VMAXPD      Y1, Y13, Y1; \
	VMINPD      Y1, Y14, Y1; \
	VCVTTPD2DQY Y1, X1; \
	VPSHUFB     X9, X1, X1; \
	VMOVD       X1, (DI)

#define QROUND_CONSTS \
	VBROADCASTSD ·qOne(SB), Y10; \
	VBROADCASTSD ·qSign(SB), Y11; \
	VBROADCASTSD ·qHalf(SB), Y12; \
	VBROADCASTSD ·qHi(SB), Y14; \
	VBROADCASTSD ·qAbs(SB), Y15; \
	VMOVDQU      ·qLowBytes(SB), X9

// func quantizeI8AVX(dst *int8, x *float64, n int, scale float64)
//
// dst[i] = int8(clamp(round(x[i]/scale), -128, 127)) for i < n (n a
// multiple of 4).
TEXT ·quantizeI8AVX(SB), NOSPLIT, $0-32
	MOVQ         dst+0(FP), DI
	MOVQ         x+8(FP), SI
	MOVQ         n+16(FP), DX
	VBROADCASTSD scale+24(FP), Y8
	QROUND_CONSTS
	VBROADCASTSD ·qLo(SB), Y13
	SHRQ         $2, DX
	JZ           qzdone
qzloop:
	VMOVUPD (SI), Y0
	VDIVPD  Y8, Y0, Y0          // v / scale
	QROUND
	ADDQ    $32, SI
	ADDQ    $4, DI
	DECQ    DX
	JNZ     qzloop
qzdone:
	VZEROUPPER
	RET

// func requantizeI8AVX(dst *int8, acc *int32, n int, mult, lo float64)
//
// dst[i] = int8(clamp(round(float64(acc[i])*mult), lo, 127)) for i < n
// (n a multiple of 4); lo is 0 under ReLU (r < 0 -> 0), else -128.
TEXT ·requantizeI8AVX(SB), NOSPLIT, $0-40
	MOVQ         dst+0(FP), DI
	MOVQ         acc+8(FP), SI
	MOVQ         n+16(FP), DX
	VBROADCASTSD mult+24(FP), Y8
	VBROADCASTSD lo+32(FP), Y13
	QROUND_CONSTS
	SHRQ         $2, DX
	JZ           rqdone
rqloop:
	VCVTDQ2PD (SI), Y0          // float64(a), exact
	VMULPD    Y8, Y0, Y0        // * mult
	QROUND
	ADDQ      $16, SI
	ADDQ      $4, DI
	DECQ      DX
	JNZ       rqloop
rqdone:
	VZEROUPPER
	RET

// func dequantizeI32AVX(dst *float64, acc *int32, n int, s0, s1 float64, reluMask uint64)
//
// dst[i] = (float64(acc[i])*s0)*s1 for i < n (n a multiple of 4), set
// to +0 where negative (an ordered compare: NaN and -0 pass through)
// when reluMask is all ones.
TEXT ·dequantizeI32AVX(SB), NOSPLIT, $0-48
	MOVQ         dst+0(FP), DI
	MOVQ         acc+8(FP), SI
	MOVQ         n+16(FP), DX
	VBROADCASTSD s0+24(FP), Y8
	VBROADCASTSD s1+32(FP), Y9
	VBROADCASTSD reluMask+40(FP), Y10
	VXORPD       Y11, Y11, Y11
	SHRQ         $2, DX
	JZ           dqdone
dqloop:
	VCVTDQ2PD (SI), Y0
	VMULPD    Y8, Y0, Y0        // * s0
	VMULPD    Y9, Y0, Y0        // * s1
	VCMPPD    $0x11, Y11, Y0, Y1 // v < 0 (LT_OQ)
	VANDPD    Y10, Y1, Y1
	VANDNPD   Y0, Y1, Y0
	VMOVUPD   Y0, (DI)
	ADDQ      $16, SI
	ADDQ      $32, DI
	DECQ      DX
	JNZ       dqloop
dqdone:
	VZEROUPPER
	RET
