package simd

import "math"

// Int8 inference kernels: the three stages of a quantized dense layer —
// quantize float activations to int8, the int8×int8→int32 GEMM, and the
// int32→int8 requantize / int32→float64 dequantize that close it.
//
// The GEMM is integer arithmetic, so any evaluation order is exact. The
// float stages keep one lane per element and perform the scalar
// expression's operations in the scalar order (one correctly rounded
// VDIVPD or VMULPD per step), then reproduce math.Round exactly:
// t = trunc(x), plus copysign(1, x) when |x − t| ≥ 0.5. That rounds ties
// away from zero as math.Round does; ROUNDPD's round-to-nearest-even
// would not. The clamp to [−128, 127] keeps NaN, and the conversion
// truncates each lane to its low byte, so NaN becomes 0 exactly as the
// scalar int8(r) does (CVTTSD2SL yields 0x80000000). ±Inf clamps to the
// range ends and −0 becomes 0.

// QPack is one dense layer's int8 weights and int32 biases in the form
// QGEMM consumes. It keeps the row-major [out][in] weights and the
// biases by reference for the scalar body. On hosts with the vector
// backend it also holds the weights widened to int16 input pairs laid
// out [ceil(in/2)][outP][2], where outP is out rounded up to a multiple
// of four, with the odd-in pair partner and the padded outputs zero, and
// the bias padded to outP the same way.
type QPack struct {
	in, out int
	w       []int8
	b       []int32
	wp      []int16
	bp      []int32
}

// PackQ builds the QGEMM form of a dense layer's weights w ([out][in]
// row-major) and biases b. Pack once per layer and reuse: the packing is
// the only per-layer work QGEMM does not repeat per call.
func PackQ(w []int8, b []int32, in, out int) *QPack {
	p := &QPack{in: in, out: out, w: w, b: b}
	if !available || in <= 0 || out <= 0 {
		return p
	}
	pairs := (in + 1) / 2
	outP := (out + 3) &^ 3
	p.wp = make([]int16, pairs*outP*2)
	for o := 0; o < out; o++ {
		for i := 0; i < in; i++ {
			p.wp[((i/2)*outP+o)*2+i%2] = int16(w[o*in+i])
		}
	}
	p.bp = make([]int32, outP)
	copy(p.bp, b[:out])
	return p
}

// QGEMM computes the int8 batched dense product
// acc[r][o] = b[o] + Σ_i int32(w[o][i])·int32(x[r][i]) for r < m, with
// int32 accumulators, for the layer p packs. x holds m rows of in int8
// activations and acc receives m rows of out sums, both row-major. The
// vector body gives each output one 32-bit lane: every step broadcasts
// one sign-extended activation pair and adds its VPMADDWD products into
// four outputs per register.
func QGEMM(acc []int32, x []int8, p *QPack, m int) {
	if enabled && p.wp != nil && m > 0 {
		acc, x = acc[:m*p.out], x[:m*p.in]
		qgemmAVX(&acc[0], &x[0], &p.wp[0], &p.bp[0], m, p.in, p.out)
		return
	}
	QGEMMRef(acc, x, p.w, p.b, m, p.in, p.out)
}

// QGEMMRef is the portable QGEMM body on the unpacked weights: four
// output rows share one pass over each activation row.
func QGEMMRef(acc []int32, x, w []int8, bq []int32, n, in, out int) {
	for r := 0; r < n; r++ {
		xr := x[r*in : (r+1)*in]
		ar := acc[r*out : (r+1)*out]
		o := 0
		for ; o+4 <= out; o += 4 {
			w0 := w[(o+0)*in : (o+1)*in]
			w1 := w[(o+1)*in : (o+2)*in]
			w2 := w[(o+2)*in : (o+3)*in]
			w3 := w[(o+3)*in : (o+4)*in]
			s0, s1, s2, s3 := bq[o], bq[o+1], bq[o+2], bq[o+3]
			for i, v := range xr {
				xv := int32(v)
				s0 += int32(w0[i]) * xv
				s1 += int32(w1[i]) * xv
				s2 += int32(w2[i]) * xv
				s3 += int32(w3[i]) * xv
			}
			ar[o], ar[o+1], ar[o+2], ar[o+3] = s0, s1, s2, s3
		}
		for ; o < out; o++ {
			wo := w[o*in : (o+1)*in]
			s := bq[o]
			for i, v := range xr {
				s += int32(wo[i]) * int32(v)
			}
			ar[o] = s
		}
	}
}

// QuantizeI8 maps len(x) floats to int8 at the given scale:
// dst[i] = int8(clamp(math.Round(x[i]/scale), −128, 127)), with NaN → 0.
// len(dst) must be >= len(x).
func QuantizeI8(dst []int8, x []float64, scale float64) {
	n := len(x)
	if enabled && n >= 4 {
		q := n &^ 3
		_ = dst[n-1]
		quantizeI8AVX(&dst[0], &x[0], q, scale)
		if q < n {
			QuantizeI8Ref(dst[q:], x[q:], scale)
		}
		return
	}
	QuantizeI8Ref(dst, x, scale)
}

// QuantizeI8Ref is the portable QuantizeI8 body.
func QuantizeI8Ref(out []int8, x []float64, scale float64) {
	for i, v := range x {
		r := math.Round(v / scale)
		if r > 127 {
			r = 127
		}
		if r < -128 {
			r = -128
		}
		out[i] = int8(r)
	}
}

// RequantizeI8 rescales len(acc) int32 accumulators to int8:
// dst[i] = int8(clamp(math.Round(float64(acc[i])·mult), −128, 127)),
// with negatives clamped to 0 first when relu is set, and NaN → 0.
// len(dst) must be >= len(acc).
func RequantizeI8(dst []int8, acc []int32, mult float64, relu bool) {
	n := len(acc)
	if enabled && n >= 4 {
		q := n &^ 3
		_ = dst[n-1]
		lo := -128.0
		if relu {
			lo = 0
		}
		requantizeI8AVX(&dst[0], &acc[0], q, mult, lo)
		if q < n {
			RequantizeI8Ref(dst[q:], acc[q:], mult, relu)
		}
		return
	}
	RequantizeI8Ref(dst, acc, mult, relu)
}

// RequantizeI8Ref is the portable RequantizeI8 body.
func RequantizeI8Ref(next []int8, acc []int32, mult float64, relu bool) {
	for p, a := range acc {
		r := math.Round(float64(a) * mult)
		if relu && r < 0 {
			r = 0
		}
		if r > 127 {
			r = 127
		}
		if r < -128 {
			r = -128
		}
		next[p] = int8(r)
	}
}

// DequantizeI32 converts len(acc) int32 accumulators to float64:
// dst[i] = float64(acc[i])·s0·s1, evaluated left to right, replaced by +0
// where it is negative and relu is set. len(dst) must be >= len(acc).
func DequantizeI32(dst []float64, acc []int32, s0, s1 float64, relu bool) {
	n := len(acc)
	if enabled && n >= 4 {
		q := n &^ 3
		_ = dst[n-1]
		var rm uint64
		if relu {
			rm = math.MaxUint64
		}
		dequantizeI32AVX(&dst[0], &acc[0], q, s0, s1, rm)
		if q < n {
			DequantizeI32Ref(dst[q:], acc[q:], s0, s1, relu)
		}
		return
	}
	DequantizeI32Ref(dst, acc, s0, s1, relu)
}

// DequantizeI32Ref is the portable DequantizeI32 body.
func DequantizeI32Ref(out []float64, acc []int32, s0, s1 float64, relu bool) {
	for p, a := range acc {
		v := float64(a) * s0 * s1
		if relu && v < 0 {
			v = 0
		}
		out[p] = v
	}
}
