package h264

import (
	"encoding/binary"
	"fmt"
)

// Block4 is a 4x4 block of residual samples or coefficients, row-major.
type Block4 [16]int32

// ForwardTransform4 applies the H.264 4x4 forward integer transform
// W = C * X * C^T with the core matrix
//
//	C = | 1  1  1  1 |
//	    | 2  1 -1 -2 |
//	    | 1 -1 -1  1 |
//	    | 1 -2  2 -1 |
func ForwardTransform4(x Block4) Block4 {
	var tmp, out Block4
	// rows: tmp = C * X  (apply butterfly to each column of X)
	for c := 0; c < 4; c++ {
		s0, s1, s2, s3 := x[c], x[4+c], x[8+c], x[12+c]
		a := s0 + s3
		b := s1 + s2
		d := s1 - s2
		e := s0 - s3
		tmp[c] = a + b
		tmp[4+c] = 2*e + d
		tmp[8+c] = a - b
		tmp[12+c] = e - 2*d
	}
	// cols: out = tmp * C^T (apply butterfly to each row of tmp)
	for r := 0; r < 4; r++ {
		s0, s1, s2, s3 := tmp[4*r], tmp[4*r+1], tmp[4*r+2], tmp[4*r+3]
		a := s0 + s3
		b := s1 + s2
		d := s1 - s2
		e := s0 - s3
		out[4*r] = a + b
		out[4*r+1] = 2*e + d
		out[4*r+2] = a - b
		out[4*r+3] = e - 2*d
	}
	return out
}

// InverseTransform4 applies the H.264 4x4 inverse integer transform with
// the spec's final >>6 rounding, mapping scaled coefficients back to
// residual samples.
func InverseTransform4(w Block4) Block4 {
	var tmp, out Block4
	for r := 0; r < 4; r++ {
		tmp[4*r], tmp[4*r+1], tmp[4*r+2], tmp[4*r+3] = invButterfly(w[4*r], w[4*r+1], w[4*r+2], w[4*r+3])
	}
	for c := 0; c < 4; c++ {
		o0, o1, o2, o3 := invButterfly(tmp[c], tmp[4+c], tmp[8+c], tmp[12+c])
		out[c], out[4+c], out[8+c], out[12+c] = (o0+32)>>6, (o1+32)>>6, (o2+32)>>6, (o3+32)>>6
	}
	return out
}

// invButterfly is one 1-D pass of the inverse integer transform.
func invButterfly(s0, s1, s2, s3 int32) (int32, int32, int32, int32) {
	e0 := s0 + s2
	e1 := s0 - s2
	e2 := (s1 >> 1) - s3
	e3 := s1 + (s3 >> 1)
	return e0 + e3, e1 + e2, e1 - e2, e0 - e3
}

// Quantization tables from the spec (per QP%6). Positions fall into three
// classes by (i,j): class 0 at (0,0),(0,2),(2,0),(2,2); class 1 at
// (1,1),(1,3),(3,1),(3,3); class 2 elsewhere.
var quantMF = [6][3]int32{
	{13107, 5243, 8066},
	{11916, 4660, 7490},
	{10082, 4194, 6554},
	{9362, 3647, 5825},
	{8192, 3355, 5243},
	{7282, 2893, 4559},
}

var dequantV = [6][3]int32{
	{10, 16, 13},
	{11, 18, 14},
	{13, 20, 16},
	{14, 23, 18},
	{16, 25, 20},
	{18, 29, 23},
}

// posClass returns the MF/V class of coefficient position i (row-major).
func posClass(i int) int {
	r, c := i/4, i%4
	evenR, evenC := r%2 == 0, c%2 == 0
	switch {
	case evenR && evenC:
		return 0
	case !evenR && !evenC:
		return 1
	default:
		return 2
	}
}

// Per-QP expansions of the MF/V tables. The hot loops index one flat table
// per QP instead of recomputing qp%6, posClass, and the 2^(QP/6) shift per
// coefficient. Baking the shift into the dequant entries is exact: int32
// multiplication wraps mod 2^32, so (z*V)<<s == z*(V<<s) for every z.
// The Scan variants hold the same entries permuted into zig-zag order,
// feeding the fused scan-order kernels without a block-order bounce.
var (
	quantTab struct {
		mf     [52][16]int32 // MF by position, block order
		mfScan [52][16]int32 // MF by position, zig-zag order
		f      [52]int32     // rounding offset 2^(qbits-3)
		qbits  [52]uint      // 15 + QP/6
	}
	dequantTab  [52][16]int32 // V << (QP/6), block order
	dequantScan [52][16]int32 // V << (QP/6), zig-zag order
)

func init() {
	for qp := 0; qp <= 51; qp++ {
		qbits := uint(15 + qp/6)
		quantTab.qbits[qp] = qbits
		quantTab.f[qp] = 1 << (qbits - 3)
		shift := uint(qp / 6)
		for i := 0; i < 16; i++ {
			cls := posClass(i)
			quantTab.mf[qp][i] = quantMF[qp%6][cls]
			dequantTab[qp][i] = dequantV[qp%6][cls] << shift
		}
		for s, pos := range zigzag4 {
			quantTab.mfScan[qp][s] = quantTab.mf[qp][pos]
			dequantScan[qp][s] = dequantTab[qp][pos]
		}
	}
}

// ValidQP reports whether qp is a legal quantization parameter.
func ValidQP(qp int) bool { return qp >= 0 && qp <= 51 }

// Quantize maps transform coefficients to quantized levels at the given QP
// using the spec's multiply-shift formulation:
//
//	Z = sign(W) * ((|W|*MF + f) >> qbits), qbits = 15 + QP/6
func Quantize(w Block4, qp int) (Block4, error) {
	if !ValidQP(qp) {
		return Block4{}, fmt.Errorf("h264: QP %d out of range", qp)
	}
	qbits := quantTab.qbits[qp]
	f := quantTab.f[qp] // rounding offset 2^qbits/8 (intra convention ~/3, inter ~/6; /8 sits between)
	mf := &quantTab.mf[qp]
	var z Block4
	for i, v := range w {
		neg := v < 0
		if neg {
			v = -v
		}
		q := (v*mf[i] + f) >> qbits
		if neg {
			q = -q
		}
		z[i] = q
	}
	return z, nil
}

// Dequantize rescales quantized levels back to transform coefficients:
//
//	W' = Z * V * 2^(QP/6)
func Dequantize(z Block4, qp int) (Block4, error) {
	if !ValidQP(qp) {
		return Block4{}, fmt.Errorf("h264: QP %d out of range", qp)
	}
	dv := &dequantTab[qp]
	var w Block4
	for i, v := range z {
		w[i] = v * dv[i]
	}
	return w, nil
}

// IQIT is the decoder's inverse-quantization + inverse-transform stage:
// quantized levels to reconstructed residual.
func IQIT(z Block4, qp int) (Block4, error) {
	w, err := Dequantize(z, qp)
	if err != nil {
		return Block4{}, err
	}
	return InverseTransform4(w), nil
}

// TransformQuantize is the encoder's forward path: residual to quantized
// levels.
func TransformQuantize(x Block4, qp int) (Block4, error) {
	return Quantize(ForwardTransform4(x), qp)
}

// iqitScanInto is the encoder's reconstruction of a block's residual:
// zig-zag-ordered levels dequantized straight into block order (the
// dequantScan table maps each scan position to its baked V<<shift
// factor) and inverse-transformed. Bit-identical to FromZigZag ->
// Dequantize -> InverseTransform4.
func iqitScanInto(scan *[16]int32, qp int, out *Block4) error {
	if !ValidQP(qp) {
		return fmt.Errorf("h264: QP %d out of range", qp)
	}
	dv := &dequantScan[qp]
	var w Block4
	for i, pos := range zigzag4 {
		w[pos] = scan[i] * dv[i]
	}
	*out = InverseTransform4(w)
	return nil
}

// addIQIT4 is the decoder's reconstruction of one coded block in one
// pass: it dequantizes the zig-zag levels in scan by dq (a dequantScan
// row), inverse-transforms them and adds the residual, clamped, to the
// 4x4 block whose top-left sample is dst[0] (rows stride apart).
// Bit-identical to iqitScanInto followed by clamp(sample + residual):
// the zig-zag permutation is written out in the loads, and the final
// rounding's +32 rides on the column pass's first input, which reaches
// every output of the butterfly unchanged. dcOnly says that scan[0] is
// the only nonzero level; the residual is then the one value
// (scan[0]*dq[0]+32)>>6, which is what both passes make of a lone DC
// coefficient.
func addIQIT4(dst []uint8, stride int, scan, dq *[16]int32, dcOnly bool) {
	if dcOnly {
		if v := (scan[0]*dq[0] + 32) >> 6; v != 0 {
			for row := 0; row < 4; row++ {
				addRow4(dst[row*stride:], v, v, v, v)
			}
		}
		return
	}
	// Rows of the dequantized block, raster position p <- scan index
	// zigzag4^-1(p).
	a0, a1, a2, a3 := invButterfly(scan[0]*dq[0], scan[1]*dq[1], scan[5]*dq[5], scan[6]*dq[6])
	b0, b1, b2, b3 := invButterfly(scan[2]*dq[2], scan[4]*dq[4], scan[7]*dq[7], scan[12]*dq[12])
	c0, c1, c2, c3 := invButterfly(scan[3]*dq[3], scan[8]*dq[8], scan[11]*dq[11], scan[13]*dq[13])
	e0, e1, e2, e3 := invButterfly(scan[9]*dq[9], scan[10]*dq[10], scan[14]*dq[14], scan[15]*dq[15])
	// Columns: pN is column N, its outputs rows 0..3.
	p00, p01, p02, p03 := invButterfly(a0+32, b0, c0, e0)
	p10, p11, p12, p13 := invButterfly(a1+32, b1, c1, e1)
	p20, p21, p22, p23 := invButterfly(a2+32, b2, c2, e2)
	p30, p31, p32, p33 := invButterfly(a3+32, b3, c3, e3)
	addRow4(dst, p00>>6, p10>>6, p20>>6, p30>>6)
	addRow4(dst[stride:], p01>>6, p11>>6, p21>>6, p31>>6)
	addRow4(dst[2*stride:], p02>>6, p12>>6, p22>>6, p32>>6)
	addRow4(dst[3*stride:], p03>>6, p13>>6, p23>>6, p33>>6)
}

// addRow4 adds r0..r3 to the four samples d[0:4], clamped, as one word
// load and one word store.
func addRow4(d []uint8, r0, r1, r2, r3 int32) {
	s := binary.LittleEndian.Uint32(d)
	binary.LittleEndian.PutUint32(d, uint32(clampU8(int32(s&0xff)+r0))|
		uint32(clampU8(int32(s>>8&0xff)+r1))<<8|
		uint32(clampU8(int32(s>>16&0xff)+r2))<<16|
		uint32(clampU8(int32(s>>24)+r3))<<24)
}

// transformQuantizeScan is the encoder's fused hot path: residual to
// zig-zag-ordered quantized levels in one pass, returning the nonzero
// count. Bit-identical to TransformQuantize followed by ZigZag plus
// NonZeroCount.
func transformQuantizeScan(x *Block4, qp int, scan *[16]int32) (int, error) {
	if !ValidQP(qp) {
		return 0, fmt.Errorf("h264: QP %d out of range", qp)
	}
	var tmp, w Block4
	for c := 0; c < 4; c++ {
		s0, s1, s2, s3 := x[c], x[4+c], x[8+c], x[12+c]
		a := s0 + s3
		b := s1 + s2
		d := s1 - s2
		e := s0 - s3
		tmp[c] = a + b
		tmp[4+c] = 2*e + d
		tmp[8+c] = a - b
		tmp[12+c] = e - 2*d
	}
	for r := 0; r < 4; r++ {
		s0, s1, s2, s3 := tmp[4*r], tmp[4*r+1], tmp[4*r+2], tmp[4*r+3]
		a := s0 + s3
		b := s1 + s2
		d := s1 - s2
		e := s0 - s3
		w[4*r] = a + b
		w[4*r+1] = 2*e + d
		w[4*r+2] = a - b
		w[4*r+3] = e - 2*d
	}
	qbits := quantTab.qbits[qp]
	f := quantTab.f[qp]
	mf := &quantTab.mfScan[qp]
	nz := 0
	for i, pos := range zigzag4 {
		v := w[pos]
		neg := v < 0
		if neg {
			v = -v
		}
		q := (v*mf[i] + f) >> qbits
		if neg {
			q = -q
		}
		scan[i] = q
		if q != 0 {
			nz++
		}
	}
	return nz, nil
}

// NonZeroCount returns the number of nonzero coefficients in z.
func (b Block4) NonZeroCount() int {
	var n int
	for _, v := range b {
		if v != 0 {
			n++
		}
	}
	return n
}

// zigzag4 is the 4x4 zig-zag scan order.
var zigzag4 = [16]int{0, 1, 4, 8, 5, 2, 3, 6, 9, 12, 13, 10, 7, 11, 14, 15}

// ZigZag returns the block's coefficients in zig-zag scan order.
func (b Block4) ZigZag() [16]int32 {
	var out [16]int32
	for i, pos := range zigzag4 {
		out[i] = b[pos]
	}
	return out
}

// FromZigZag reconstructs a block from zig-zag-ordered coefficients.
func FromZigZag(scan [16]int32) Block4 {
	var b Block4
	for i, pos := range zigzag4 {
		b[pos] = scan[i]
	}
	return b
}
