// Package dsp implements the signal-processing substrate used for affect
// feature extraction: an FFT, windowing, the MFCC pipeline (pre-emphasis,
// framing, mel filterbank, DCT), zero-crossing rate, RMS energy,
// autocorrelation pitch estimation, and magnitude-spectrum statistics.
//
// Everything is implemented from scratch on float64 slices so the package
// has no dependencies beyond the standard library.
package dsp

import (
	"fmt"

	"affectedge/internal/simd"
)

// FFT computes the in-place radix-2 decimation-in-time fast Fourier
// transform of x. len(x) must be a power of two (and > 0); otherwise FFT
// returns an error and leaves x unmodified.
func FFT(x []complex128) error {
	n := len(x)
	if n == 0 || n&(n-1) != 0 {
		return fmt.Errorf("dsp: FFT length %d is not a power of two", n)
	}
	fftInPlace(x, false)
	return nil
}

// IFFT computes the in-place inverse FFT of x, including the 1/n scaling.
// len(x) must be a power of two.
func IFFT(x []complex128) error {
	n := len(x)
	if n == 0 || n&(n-1) != 0 {
		return fmt.Errorf("dsp: IFFT length %d is not a power of two", n)
	}
	fftInPlace(x, true)
	inv := 1 / float64(n)
	for i := range x {
		x[i] *= complex(inv, 0)
	}
	return nil
}

// fftInPlace runs the radix-2 DIT FFT through the simd stage kernels:
// a precomputed bit-reversal swap list, then one FFTStage per butterfly
// size with cached twiddle tables. The twiddles are built with the same
// repeated-multiplication recurrence the previous in-line loop used and
// the stage kernels keep scalar per-butterfly operation order, so
// results are bit-identical to the historical implementation (pinned by
// the golden tests and by the test-only oracle fftInPlaceRef in
// dsp_ref_test.go).
func fftInPlace(x []complex128, inverse bool) {
	n := len(x)
	if n == 1 {
		return
	}
	for _, p := range bitrevPairsCached(n) {
		i, j := int(p>>32), int(uint32(p))
		x[i], x[j] = x[j], x[i]
	}
	// The size-2 stage's only twiddle is exactly 1+0i in both
	// directions; the multiply is still performed to match the
	// historical arithmetic.
	simd.FFTStage2(x, complex(1, 0))
	for size := 4; size <= n; size <<= 1 {
		simd.FFTStage(x, size, fftTwiddlesCached(size, inverse))
	}
}

// RealFFTMagnitude returns the magnitude spectrum |X[k]| for k in
// [0, n/2], of the real signal x zero-padded to the next power of two.
// The returned slice has nfft/2+1 entries where nfft is the padded length.
func RealFFTMagnitude(x []float64) []float64 {
	nfft := NextPow2(len(x))
	if nfft == 0 {
		return nil
	}
	out := make([]float64, nfft/2+1)
	realFFTMagnitudeInto(out, x, nfft)
	return out
}

// realFFTMagnitudeInto computes |X[k]| into dst (length nfft/2+1) using a
// pooled complex work buffer. nfft must be NextPow2(len(x)).
func realFFTMagnitudeInto(dst, x []float64, nfft int) {
	bufp := getC128(nfft)
	buf := *bufp
	simd.Widen(buf[:len(x)], x)
	for i := len(x); i < nfft; i++ {
		buf[i] = 0
	}
	// Length is a power of two by construction; FFT cannot fail.
	if err := FFT(buf); err != nil {
		panic("dsp: internal: " + err.Error())
	}
	simd.CAbs(dst, buf[:len(dst)])
	putC128(bufp)
}

// PowerSpectrum returns |X[k]|^2 / nfft for k in [0, nfft/2], the periodogram
// estimate used by the MFCC pipeline.
func PowerSpectrum(x []float64) []float64 {
	nfft := NextPow2(len(x))
	if nfft == 0 {
		return nil
	}
	out := make([]float64, nfft/2+1)
	powerSpectrumInto(out, x, nfft)
	return out
}

// PowerSpectrumInto computes PowerSpectrum into dst, which must have
// length NextPow2(len(x))/2+1. Beyond pooled FFT scratch it allocates
// nothing — the variant batch callers reuse one output buffer across.
func PowerSpectrumInto(dst, x []float64) error {
	nfft := NextPow2(len(x))
	if nfft == 0 {
		return fmt.Errorf("dsp: power spectrum of empty signal")
	}
	if len(dst) != nfft/2+1 {
		return fmt.Errorf("dsp: power spectrum dst length %d, want %d", len(dst), nfft/2+1)
	}
	powerSpectrumInto(dst, x, nfft)
	return nil
}

// powerSpectrumInto computes the periodogram into dst (length nfft/2+1).
// nfft must be NextPow2(len(x)).
func powerSpectrumInto(dst, x []float64, nfft int) {
	realFFTMagnitudeInto(dst, x, nfft)
	simd.SqScale(dst, 1/float64(nfft))
}

// NextPow2 returns the smallest power of two >= n, or 0 for n <= 0.
func NextPow2(n int) int {
	if n <= 0 {
		return 0
	}
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// Autocorrelation returns the biased autocorrelation r[k] =
// sum_i x[i]*x[i+k] / n for k in [0, maxLag]. maxLag is clamped to
// len(x)-1.
func Autocorrelation(x []float64, maxLag int) []float64 {
	n := len(x)
	if n == 0 {
		return nil
	}
	if maxLag >= n {
		maxLag = n - 1
	}
	if maxLag < 0 {
		maxLag = 0
	}
	out := make([]float64, maxLag+1)
	autocorrelationInto(out, x)
	return out
}

// autocorrelationInto fills dst[k] with the biased autocorrelation at lag
// k for k in [0, len(dst)); len(dst) must be <= len(x). Eight lags are
// computed per kernel call, each lane accumulating its own lag's sum in
// scalar order.
func autocorrelationInto(dst, x []float64) {
	n := len(x)
	inv := 1 / float64(n)
	var s [8]float64
	for k := 0; k < len(dst); k += 8 {
		simd.LagDot8(&s, x, k)
		for l := 0; l < 8 && k+l < len(dst); l++ {
			dst[k+l] = s[l] * inv
		}
	}
}

// DCTII computes the type-II discrete cosine transform of x with the
// orthonormal scaling used by MFCC implementations:
//
//	y[k] = s(k) * sum_n x[n] * cos(pi*k*(2n+1)/(2N))
//
// where s(0)=sqrt(1/N) and s(k)=sqrt(2/N) for k>0.
func DCTII(x []float64) []float64 {
	n := len(x)
	if n == 0 {
		return nil
	}
	out := make([]float64, n)
	// The cached basis table holds the identical cos(...) values this
	// function used to recompute O(N^2) per call, and dctIIInto keeps
	// the same per-coefficient accumulation order, so results are
	// unchanged bit for bit (pinned by TestDCTIIMatchesTable).
	dctIIInto(out, x)
	return out
}
