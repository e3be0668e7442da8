// Package simd is the shared, CPUID-gated vector-kernel backend for the
// repository's hot paths: the DSP feature pipeline (internal/dsp), the
// H.264 pixel kernels (internal/h264), and the neural-network GEMM/Adam
// primitives (internal/nn, whose AVX dispatch pattern this package
// generalizes).
//
// # Bit-exactness contract
//
// Every float kernel here vectorizes ACROSS INDEPENDENT OUTPUTS — the
// lane-per-output trick axpy4 established — never across a reduction.
// Each SIMD lane owns one output slot and accumulates that slot's sum in
// exactly the scalar order (ascending index, one IEEE-rounded multiply
// and one IEEE-rounded add per term, no FMA contraction). Vector
// VMULPD/VADDPD/VDIVPD/VSQRTPD are correctly rounded like their scalar
// forms, so results are Float64bits-identical to the portable Go loops.
// Integer kernels (SAD, deblock masks) are exactly associative, so any
// evaluation order is bit-exact by construction.
//
// Every kernel ships three forms: the exported dispatching wrapper, the
// AVX/SSE body (amd64 assembly, used when Enabled), and an exported
// *Ref scalar reference that doubles as the non-amd64/non-AVX fallback
// and as the oracle for the differential and fuzz tests. When the two
// disagree, the reference defines correct behavior.
//
// # Dispatch control
//
// Dispatch is decided by one package-level flag: the CPU must support
// AVX (including OS-enabled YMM state), and the AFFECTEDGE_NOSIMD
// environment variable must be unset (the `make test-noavx` hook that
// keeps the scalar fallback exercised on AVX machines). Tests may flip
// dispatch at runtime with SetEnabled, a pure execution knob: results
// are identical either way.
package simd

import (
	"math"
	"math/cmplx"
	"os"
)

// enabled gates every kernel wrapper. Plain (non-atomic) on purpose,
// mirroring nn's useAVX: it is written only at init and by SetEnabled,
// which callers must not race with running kernels.
var enabled = available && os.Getenv("AFFECTEDGE_NOSIMD") == ""

// Available reports whether the CPU supports the vector backend
// (AVX with OS-enabled YMM state on amd64; false elsewhere).
func Available() bool { return available }

// Enabled reports whether kernels currently dispatch to the vector
// backend.
func Enabled() bool { return enabled }

// SetEnabled switches dispatch on or off and returns the previous
// setting. Enabling is a no-op on hosts without the backend. It is a
// test hook: do not call concurrently with running kernels.
func SetEnabled(on bool) bool {
	prev := enabled
	enabled = on && available
	return prev
}

// Axpy4 computes dst[i] += a0·s0[i] + a1·s1[i] + a2·s2[i] + a3·s3[i]
// (chained in that order per slot) over len(dst) elements.
func Axpy4(dst, s0, s1, s2, s3 []float64, a0, a1, a2, a3 float64) {
	n := len(dst)
	if enabled && n >= 4 {
		q := n &^ 3
		axpy4AVX(&dst[0], &s0[0], &s1[0], &s2[0], &s3[0], q, a0, a1, a2, a3)
		if q < n {
			Axpy4Ref(dst[q:], s0[q:], s1[q:], s2[q:], s3[q:], a0, a1, a2, a3)
		}
		return
	}
	Axpy4Ref(dst, s0, s1, s2, s3, a0, a1, a2, a3)
}

// Axpy4Ref is the portable Axpy4 body (also the amd64 tail handler).
func Axpy4Ref(dst, s0, s1, s2, s3 []float64, a0, a1, a2, a3 float64) {
	for i := range dst {
		s := dst[i]
		s += a0 * s0[i]
		s += a1 * s1[i]
		s += a2 * s2[i]
		s += a3 * s3[i]
		dst[i] = s
	}
}

// Adam applies one Adam update to a parameter slice; see AdamRef for the
// per-element formula the vector body reproduces bit for bit.
func Adam(w, grad, m, v []float64, inv, b1, b2, c1, c2, lr, eps float64) {
	n := len(w)
	if enabled && n >= 4 {
		q := n &^ 3
		adamAVX(&w[0], &grad[0], &m[0], &v[0], q, inv, b1, 1-b1, b2, 1-b2, c1, c2, lr, eps)
		if q < n {
			AdamRef(w[q:], grad[q:], m[q:], v[q:], inv, b1, b2, c1, c2, lr, eps)
		}
		return
	}
	AdamRef(w, grad, m, v, inv, b1, b2, c1, c2, lr, eps)
}

// AdamRef is the portable Adam body (also the amd64 tail handler). The
// vector backend performs the identical per-element operation sequence
// with IEEE-exact vector divides and square roots.
func AdamRef(w, grad, m, v []float64, inv, b1, b2, c1, c2, lr, eps float64) {
	for i := range w {
		g := grad[i] * inv
		m[i] = b1*m[i] + (1-b1)*g
		v[i] = b2*v[i] + (1-b2)*g*g
		mHat := m[i] / c1
		vHat := v[i] / c2
		w[i] -= lr * mHat / (math.Sqrt(vHat) + eps)
	}
}

// DotI8 computes eight interleaved dot products against a shared vector:
// dst[l] = Σ_k w[8k+l]·x[k] for l in [0,8), each lane accumulating in
// ascending k order. len(w) must be at least 8·len(x). This is the
// lane-per-output form of "eight filter rows × one spectrum": the mel
// filterbank and DCT-II kernels store their bases pre-interleaved so
// eight outputs share one pass over x.
func DotI8(dst *[8]float64, w, x []float64) {
	if enabled && len(x) > 0 {
		dotI8AVX(&w[0], &x[0], len(x), &dst[0])
		return
	}
	DotI8Ref(dst, w, x)
}

// DotI8Ref is the portable DotI8 body.
func DotI8Ref(dst *[8]float64, w, x []float64) {
	var s [8]float64
	for k, xv := range x {
		row := w[8*k : 8*k+8]
		s[0] += row[0] * xv
		s[1] += row[1] * xv
		s[2] += row[2] * xv
		s[3] += row[3] * xv
		s[4] += row[4] * xv
		s[5] += row[5] * xv
		s[6] += row[6] * xv
		s[7] += row[7] * xv
	}
	*dst = s
}

// LagDot8 computes eight autocorrelation lag sums of x at lags
// k..k+7: dst[l] = Σ_i x[i]·x[i+k+l] over all i with i+k+l < len(x),
// each lane in ascending i order (lags whose window is empty get 0).
// k must be >= 0.
func LagDot8(dst *[8]float64, x []float64, k int) {
	n := len(x)
	m := n - k - 7 // rows where all eight lanes are in range
	if enabled && m > 0 {
		var s [8]float64
		lagDot8AVX(&x[0], &x[k], m, &s[0])
		// Finish each lane's shorter tail in the same ascending order.
		for l := 0; l < 8; l++ {
			acc := s[l]
			for i := m; i+k+l < n; i++ {
				acc += x[i] * x[i+k+l]
			}
			dst[l] = acc
		}
		return
	}
	LagDot8Ref(dst, x, k)
}

// LagDot8Ref is the portable LagDot8 body.
func LagDot8Ref(dst *[8]float64, x []float64, k int) {
	n := len(x)
	for l := 0; l < 8; l++ {
		var s float64
		for i := 0; i+k+l < n; i++ {
			s += x[i] * x[i+k+l]
		}
		dst[l] = s
	}
}

// Mul multiplies dst element-wise by src: dst[i] *= src[i] over
// len(dst) elements. len(src) must be >= len(dst).
func Mul(dst, src []float64) {
	n := len(dst)
	if enabled && n >= 4 {
		q := n &^ 3
		mulAVX(&dst[0], &src[0], q)
		if q < n {
			MulRef(dst[q:], src[q:])
		}
		return
	}
	MulRef(dst, src)
}

// MulRef is the portable Mul body.
func MulRef(dst, src []float64) {
	for i := range dst {
		dst[i] *= src[i]
	}
}

// SubScaled computes dst[i] = x[i] - c·y[i] over len(dst) elements
// (multiply rounded first, then the subtract — the pre-emphasis filter
// shape). len(x) and len(y) must be >= len(dst); dst must not alias x
// or y at an offset (dst == x or dst == y exactly is fine: each slot
// reads its inputs before storing).
func SubScaled(dst, x, y []float64, c float64) {
	n := len(dst)
	if enabled && n >= 4 {
		q := n &^ 3
		subScaledAVX(&dst[0], &x[0], &y[0], q, c)
		if q < n {
			SubScaledRef(dst[q:], x[q:], y[q:], c)
		}
		return
	}
	SubScaledRef(dst, x, y, c)
}

// SubScaledRef is the portable SubScaled body.
func SubScaledRef(dst, x, y []float64, c float64) {
	for i := range dst {
		dst[i] = x[i] - c*y[i]
	}
}

// SqScale squares and scales in place: dst[i] = (dst[i]·dst[i])·s —
// the periodogram normalization, with the same rounding order.
func SqScale(dst []float64, s float64) {
	n := len(dst)
	if enabled && n >= 4 {
		q := n &^ 3
		sqScaleAVX(&dst[0], q, s)
		if q < n {
			SqScaleRef(dst[q:], s)
		}
		return
	}
	SqScaleRef(dst, s)
}

// SqScaleRef is the portable SqScale body.
func SqScaleRef(dst []float64, s float64) {
	for i, m := range dst {
		dst[i] = m * m * s
	}
}

// CAbs writes the complex magnitudes |src[i]| into dst over len(src)
// elements, matching math.Hypot (and therefore cmplx.Abs) bit for bit,
// including the ±Inf, NaN, and ±0 special cases. len(dst) must be >=
// len(src).
func CAbs(dst []float64, src []complex128) {
	n := len(src)
	if enabled && n >= 4 {
		q := n &^ 3
		cabsAVX(&dst[0], &src[0], q)
		if q < n {
			CAbsRef(dst[q:], src[q:])
		}
		return
	}
	CAbsRef(dst, src)
}

// CAbsRef is the portable CAbs body.
func CAbsRef(dst []float64, src []complex128) {
	for i, z := range src {
		dst[i] = cmplx.Abs(z)
	}
}

// Widen writes dst[i] = complex(src[i], 0) over len(src) elements —
// the real-to-complex copy in front of the FFT. len(dst) must be >=
// len(src).
func Widen(dst []complex128, src []float64) {
	n := len(src)
	if enabled && n >= 4 {
		q := n &^ 3
		widenAVX(&dst[0], &src[0], q)
		if q < n {
			WidenRef(dst[q:], src[q:])
		}
		return
	}
	WidenRef(dst, src)
}

// WidenRef is the portable Widen body.
func WidenRef(dst []complex128, src []float64) {
	for i, v := range src {
		dst[i] = complex(v, 0)
	}
}

// FFTStage runs one radix-2 decimation-in-time butterfly stage over x:
// for every size-aligned group, b := x[g+k+half]·tw[k]; x[g+k],
// x[g+k+half] = a+b, a-b for k in [0, half). size must be a power of
// two >= 4 dividing len(x), and len(tw) must be >= half = size/2. The
// vector body performs the naive complex multiply (two rounded products
// per component, one rounded add/sub) — the exact arithmetic the Go
// compiler emits for complex128 multiplication — two butterflies per
// register, so every butterfly is bit-identical to FFTStageRef.
func FFTStage(x []complex128, size int, tw []complex128) {
	if enabled && len(x) >= size {
		// half = size/2 is even for every size >= 4, so the vector body
		// covers whole stages with no scalar tail.
		fftStageAVX(&x[0], len(x), size, &tw[0])
		return
	}
	FFTStageRef(x, size, tw)
}

// FFTStageRef is the portable FFTStage body.
func FFTStageRef(x []complex128, size int, tw []complex128) {
	half := size / 2
	for start := 0; start+size <= len(x); start += size {
		for k := 0; k < half; k++ {
			a := x[start+k]
			b := x[start+k+half] * tw[k]
			x[start+k] = a + b
			x[start+k+half] = a - b
		}
	}
}

// FFTStage2 runs the size-2 butterfly stage: for every adjacent pair,
// b := x[2g+1]·w; x[2g], x[2g+1] = a+b, a-b. The multiply by w is
// performed even when w == 1, matching the general stage arithmetic.
// len(x) must be even.
func FFTStage2(x []complex128, w complex128) {
	nb := len(x) / 2
	q := 0
	if enabled && nb >= 2 {
		q = nb &^ 1
		fftStage2AVX(&x[0], q, w)
	}
	for g := q; g < nb; g++ {
		a := x[2*g]
		b := x[2*g+1] * w
		x[2*g] = a + b
		x[2*g+1] = a - b
	}
}

// FFTStage2Ref is the portable FFTStage2 body.
func FFTStage2Ref(x []complex128, w complex128) {
	nb := len(x) / 2
	for g := 0; g < nb; g++ {
		a := x[2*g]
		b := x[2*g+1] * w
		x[2*g] = a + b
		x[2*g+1] = a - b
	}
}

// SAD4x4 returns the sum of absolute differences between two 4x4 byte
// blocks: rows a[r·astride : r·astride+4] against b[r·bstride :
// r·bstride+4] for r in [0,4). Integer addition is exact, so the packed
// PSADBW reduction is bit-identical to the scalar loop. The caller must
// guarantee all four rows are in bounds (3·stride+4 <= len).
func SAD4x4(a []byte, astride int, b []byte, bstride int) int32 {
	if enabled {
		_ = a[3*astride+3]
		_ = b[3*bstride+3]
		return sad4x4SSE(&a[0], astride, &b[0], bstride)
	}
	return SAD4x4Ref(a, astride, b, bstride)
}

// SAD4x4Ref is the portable SAD4x4 body.
func SAD4x4Ref(a []byte, astride int, b []byte, bstride int) int32 {
	var sad int32
	for r := 0; r < 4; r++ {
		ar := a[r*astride : r*astride+4]
		br := b[r*bstride : r*bstride+4]
		for c := 0; c < 4; c++ {
			d := int32(ar[c]) - int32(br[c])
			if d < 0 {
				d = -d
			}
			sad += d
		}
	}
	return sad
}

// DeblockEdge4 applies the H.264 in-loop luma deblocking filter to all
// four segments of one 4-sample edge in y, in place. The sample layout
// is fixed by the caller-supplied base:
//
//   - vertical edge: segment i reads the eight contiguous bytes
//     [p3 p2 p1 p0 q0 q1 q2 q3] at y[base+i·stride .. base+i·stride+8)
//   - horizontal edge: row k = y[base+k·stride .. base+k·stride+4)
//     holds p3..q3 for k = 0..7, and segment i is column i
//
// alpha and beta must be in [1, 255] (the caller screens the zero
// thresholds, under which nothing can filter). For bS < 4, strong is
// false and tc0 is the spec's clipping bound; for bS == 4, strong is
// true and tc0 is ignored. The returned masks drive the caller's
// filter statistics: bit i of m0 is segment i's filterSamplesFlag (p0
// and q0 written), and mP/mQ flag the extra p-side/q-side writes (one
// sample each for the normal filter, two for the strong one).
//
// Every tap is integer arithmetic, so the packed kernel is
// bit-identical to the scalar reference; segments write only their own
// row (vertical) or column (horizontal) and never feed another
// segment's reads, so evaluating all four at once matches the
// reference's sequential order exactly.
func DeblockEdge4(y []byte, base, stride int, vertical bool, alpha, beta, tc0 int32, strong bool) (m0, mP, mQ uint8) {
	if enabled {
		s := int32(0)
		if strong {
			s = 1
		}
		var m uint32
		if vertical {
			_ = y[base+3*stride+7]
			m = deblockEdge4VSSE(&y[base], stride, alpha, beta, tc0, s)
		} else {
			_ = y[base+7*stride+3]
			m = deblockEdge4HSSE(&y[base], stride, alpha, beta, tc0, s)
		}
		return uint8(m), uint8(m >> 8), uint8(m >> 16)
	}
	return DeblockEdge4Ref(y, base, stride, vertical, alpha, beta, tc0, strong)
}

// DeblockEdge4Ref is the portable DeblockEdge4 body: the spec's
// per-segment filter, verbatim.
func DeblockEdge4Ref(y []byte, base, stride int, vertical bool, alpha, beta, tc0 int32, strong bool) (m0, mP, mQ uint8) {
	for i := 0; i < 4; i++ {
		var p0idx, step int
		if vertical {
			p0idx = base + i*stride + 3
			step = 1
		} else {
			p0idx = base + 3*stride + i
			step = stride
		}
		q0idx := p0idx + step
		var p, q [4]int32
		for d := 0; d < 4; d++ {
			p[d] = int32(y[p0idx-d*step])
			q[d] = int32(y[q0idx+d*step])
		}
		if absI32(p[0]-q[0]) >= alpha || absI32(p[1]-p[0]) >= beta || absI32(q[1]-q[0]) >= beta {
			continue
		}
		m0 |= 1 << i
		ap := absI32(p[2]-p[0]) < beta
		aq := absI32(q[2]-q[0]) < beta
		if !strong {
			tc := tc0
			if ap {
				tc++
			}
			if aq {
				tc++
			}
			delta := clip3i(-tc, tc, ((q[0]-p[0])<<2+(p[1]-q[1])+4)>>3)
			y[p0idx] = clampByte(p[0] + delta)
			y[q0idx] = clampByte(q[0] - delta)
			if ap {
				dp := clip3i(-tc0, tc0, (p[2]+((p[0]+q[0]+1)>>1)-(p[1]<<1))>>1)
				y[p0idx-step] = clampByte(p[1] + dp)
				mP |= 1 << i
			}
			if aq {
				dq := clip3i(-tc0, tc0, (q[2]+((p[0]+q[0]+1)>>1)-(q[1]<<1))>>1)
				y[q0idx+step] = clampByte(q[1] + dq)
				mQ |= 1 << i
			}
			continue
		}
		// Strong filter (bS == 4).
		if absI32(p[0]-q[0]) < (alpha>>2)+2 {
			if ap {
				y[p0idx] = clampByte((p[2] + 2*p[1] + 2*p[0] + 2*q[0] + q[1] + 4) >> 3)
				y[p0idx-step] = clampByte((p[2] + p[1] + p[0] + q[0] + 2) >> 2)
				y[p0idx-2*step] = clampByte((2*p[3] + 3*p[2] + p[1] + p[0] + q[0] + 4) >> 3)
				mP |= 1 << i
			} else {
				y[p0idx] = clampByte((2*p[1] + p[0] + q[1] + 2) >> 2)
			}
			if aq {
				y[q0idx] = clampByte((q[2] + 2*q[1] + 2*q[0] + 2*p[0] + p[1] + 4) >> 3)
				y[q0idx+step] = clampByte((q[2] + q[1] + q[0] + p[0] + 2) >> 2)
				y[q0idx+2*step] = clampByte((2*q[3] + 3*q[2] + q[1] + q[0] + p[0] + 4) >> 3)
				mQ |= 1 << i
			} else {
				y[q0idx] = clampByte((2*q[1] + q[0] + p[1] + 2) >> 2)
			}
		} else {
			y[p0idx] = clampByte((2*p[1] + p[0] + q[1] + 2) >> 2)
			y[q0idx] = clampByte((2*q[1] + q[0] + p[1] + 2) >> 2)
		}
	}
	return
}

func absI32(v int32) int32 {
	if v < 0 {
		return -v
	}
	return v
}

func clip3i(lo, hi, v int32) int32 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

func clampByte(v int32) byte {
	if v < 0 {
		return 0
	}
	if v > 255 {
		return 255
	}
	return byte(v)
}
