package dsp

import (
	"math"
	"math/bits"
	"math/cmplx"
)

// Reference implementations of the DSP hot-path transforms, kept verbatim
// from before the simd-kernel rewrite (the bits_ref_test.go pattern from
// internal/h264): straightforward scalar code whose only job is to be
// obviously correct. The differential and fuzz tests drive the production
// paths against these oracles — with the vector backend both enabled and
// disabled — to pin the rewrite's bit-exactness claims.

// fftInPlaceRef is the historical in-line radix-2 DIT FFT.
func fftInPlaceRef(x []complex128, inverse bool) {
	n := len(x)
	if n == 1 {
		return
	}
	// Bit-reversal permutation.
	shift := 64 - uint(bits.TrailingZeros(uint(n)))
	for i := 0; i < n; i++ {
		j := int(bits.Reverse64(uint64(i)) >> shift)
		if j > i {
			x[i], x[j] = x[j], x[i]
		}
	}
	sign := -1.0
	if inverse {
		sign = 1.0
	}
	for size := 2; size <= n; size <<= 1 {
		half := size >> 1
		step := sign * 2 * math.Pi / float64(size)
		wStep := cmplx.Exp(complex(0, step))
		for start := 0; start < n; start += size {
			w := complex(1, 0)
			for k := 0; k < half; k++ {
				a := x[start+k]
				b := x[start+k+half] * w
				x[start+k] = a + b
				x[start+k+half] = a - b
				w *= wStep
			}
		}
	}
}

// realFFTMagnitudeIntoRef is the historical magnitude-spectrum path.
func realFFTMagnitudeIntoRef(dst, x []float64, nfft int) {
	buf := make([]complex128, nfft)
	for i, v := range x {
		buf[i] = complex(v, 0)
	}
	fftInPlaceRef(buf, false)
	for k := range dst {
		dst[k] = cmplx.Abs(buf[k])
	}
}

// powerSpectrumIntoRef is the historical periodogram path.
func powerSpectrumIntoRef(dst, x []float64, nfft int) {
	realFFTMagnitudeIntoRef(dst, x, nfft)
	inv := 1 / float64(nfft)
	for i, m := range dst {
		dst[i] = m * m * inv
	}
}

// autocorrelationIntoRef is the historical per-lag accumulation.
func autocorrelationIntoRef(dst, x []float64) {
	n := len(x)
	inv := 1 / float64(n)
	for k := range dst {
		var s float64
		for i := 0; i+k < n; i++ {
			s += x[i] * x[i+k]
		}
		dst[k] = s * inv
	}
}

// dctIIIntoRef is the historical per-coefficient accumulation over the
// cached basis table.
func dctIIIntoRef(dst, x []float64) {
	t := dctIITableCached(len(x))
	for k := range dst {
		var sum float64
		row := t.cos[k]
		for i, v := range x {
			sum += v * row[i]
		}
		if k == 0 {
			dst[k] = t.s0 * sum
		} else {
			dst[k] = t.sk * sum
		}
	}
}

// dctIIRef is the historical exported DCTII: the orthonormal DCT-II with
// every cosine recomputed, the oracle for the cached-table equivalence.
func dctIIRef(x []float64) []float64 {
	n := len(x)
	if n == 0 {
		return nil
	}
	out := make([]float64, n)
	s0 := math.Sqrt(1 / float64(n))
	sk := math.Sqrt(2 / float64(n))
	for k := 0; k < n; k++ {
		var sum float64
		for i := 0; i < n; i++ {
			sum += x[i] * math.Cos(math.Pi*float64(k)*(2*float64(i)+1)/(2*float64(n)))
		}
		if k == 0 {
			out[k] = s0 * sum
		} else {
			out[k] = sk * sum
		}
	}
	return out
}

// preEmphasisIntoRef is the historical pre-emphasis loop.
func preEmphasisIntoRef(dst, x []float64, coeff float64) {
	dst[0] = x[0]
	for i := 1; i < len(x); i++ {
		dst[i] = x[i] - coeff*x[i-1]
	}
}

// applyWindowRef is the historical windowing loop.
func applyWindowRef(x, w []float64) {
	n := len(x)
	if len(w) < n {
		n = len(w)
	}
	for i := 0; i < n; i++ {
		x[i] *= w[i]
	}
}

// melEnergiesRef accumulates the log filterbank energies the way the
// MFCC loop did before grouping: each filter over its own support only.
func melEnergiesRef(energies []float64, bank *melBank, ps []float64) {
	for m := range bank.rows {
		var e float64
		row := bank.rows[m]
		for k := bank.lo[m]; k < bank.hi[m]; k++ {
			e += row[k] * ps[k]
		}
		energies[m] = math.Log(math.Max(e, 1e-12))
	}
}
