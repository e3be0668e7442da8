//go:build !amd64

package simd

// available: no vector backend on this architecture; every wrapper
// falls through to its *Ref body because `enabled` stays false.
var available = false

// The stubs below exist only so the shared dispatch wrappers compile;
// they are unreachable while available == false.

func axpy4AVX(dst, s0, s1, s2, s3 *float64, n int, a0, a1, a2, a3 float64) {
	panic("simd: no vector backend")
}

func adamAVX(w, grad, m, v *float64, n int, inv, b1, ib1, b2, ib2, c1, c2, lr, eps float64) {
	panic("simd: no vector backend")
}

func dotI8AVX(w, x *float64, n int, dst *float64) { panic("simd: no vector backend") }

func lagDot8AVX(x, xk *float64, n int, dst *float64) { panic("simd: no vector backend") }

func mulAVX(dst, src *float64, n int) { panic("simd: no vector backend") }

func subScaledAVX(dst, x, y *float64, n int, c float64) { panic("simd: no vector backend") }

func sqScaleAVX(dst *float64, n int, s float64) { panic("simd: no vector backend") }

func cabsAVX(dst *float64, src *complex128, n int) { panic("simd: no vector backend") }

func widenAVX(dst *complex128, src *float64, n int) { panic("simd: no vector backend") }

func fftStageAVX(x *complex128, n, size int, tw *complex128) { panic("simd: no vector backend") }

func fftStage2AVX(x *complex128, n int, w complex128) { panic("simd: no vector backend") }

func sad4x4SSE(a *byte, astride int, b *byte, bstride int) int32 {
	panic("simd: no vector backend")
}

func deblockEdge4HSSE(p *byte, stride int, alpha, beta, tc0, strong int32) uint32 {
	panic("simd: no vector backend")
}

func deblockEdge4VSSE(p *byte, stride int, alpha, beta, tc0, strong int32) uint32 {
	panic("simd: no vector backend")
}

func qgemmAVX(acc *int32, x *int8, wp *int16, bp *int32, m, in, out int) {
	panic("simd: no vector backend")
}

func quantizeI8AVX(dst *int8, x *float64, n int, scale float64) { panic("simd: no vector backend") }

func requantizeI8AVX(dst *int8, acc *int32, n int, mult, lo float64) {
	panic("simd: no vector backend")
}

func dequantizeI32AVX(dst *float64, acc *int32, n int, s0, s1 float64, reluMask uint64) {
	panic("simd: no vector backend")
}
