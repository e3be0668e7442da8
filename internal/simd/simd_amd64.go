//go:build amd64

package simd

// cpuHasAVX reports AVX support including OS-enabled YMM state.
func cpuHasAVX() bool

// available is the hardware gate for the vector backend on this
// architecture; the env-var/test override lives in `enabled`.
var available = cpuHasAVX()

//go:noescape
func axpy4AVX(dst, s0, s1, s2, s3 *float64, n int, a0, a1, a2, a3 float64)

//go:noescape
func adamAVX(w, grad, m, v *float64, n int, inv, b1, ib1, b2, ib2, c1, c2, lr, eps float64)

//go:noescape
func dotI8AVX(w, x *float64, n int, dst *float64)

//go:noescape
func lagDot8AVX(x, xk *float64, n int, dst *float64)

//go:noescape
func mulAVX(dst, src *float64, n int)

//go:noescape
func subScaledAVX(dst, x, y *float64, n int, c float64)

//go:noescape
func sqScaleAVX(dst *float64, n int, s float64)

//go:noescape
func cabsAVX(dst *float64, src *complex128, n int)

//go:noescape
func widenAVX(dst *complex128, src *float64, n int)

//go:noescape
func fftStageAVX(x *complex128, n, size int, tw *complex128)

//go:noescape
func fftStage2AVX(x *complex128, n int, w complex128)

//go:noescape
func sad4x4SSE(a *byte, astride int, b *byte, bstride int) int32

//go:noescape
func deblockMBAVX(p *byte, stride int, alpha, beta int32, tc0 *[4]int32, edges, strong, vertical int32) (m0, mP, mQ uint64)

//go:noescape
func qgemmAVX(acc *int32, x *int8, wp *int16, bp *int32, m, in, out int)

//go:noescape
func quantizeI8AVX(dst *int8, x *float64, n int, scale float64)

//go:noescape
func requantizeI8AVX(dst *int8, acc *int32, n int, mult, lo float64)

//go:noescape
func dequantizeI32AVX(dst *float64, acc *int32, n int, s0, s1 float64, reluMask uint64)
