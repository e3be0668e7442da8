package dsp

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"affectedge/internal/simd"
)

// Differential tests pinning the simd-kernel DSP paths against the
// verbatim historical implementations in dsp_ref_test.go, with the vector
// backend both enabled and force-disabled. Bit equality at both
// settings is the acceptance criterion for the rewrite: dispatch is an
// execution detail, never a results change.

func withBothDispatch(t *testing.T, fn func(t *testing.T, enabled bool)) {
	t.Helper()
	prev := simd.Enabled()
	defer simd.SetEnabled(prev)
	if simd.Available() {
		simd.SetEnabled(true)
		fn(t, true)
	}
	simd.SetEnabled(false)
	fn(t, false)
}

func f64BitsEqual(t *testing.T, ctx string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d want %d", ctx, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: [%d] = %x (%v) want %x (%v)", ctx, i,
				math.Float64bits(got[i]), got[i], math.Float64bits(want[i]), want[i])
		}
	}
}

func c128BitsEqual(t *testing.T, ctx string, got, want []complex128) {
	t.Helper()
	for i := range got {
		if math.Float64bits(real(got[i])) != math.Float64bits(real(want[i])) ||
			math.Float64bits(imag(got[i])) != math.Float64bits(imag(want[i])) {
			t.Fatalf("%s: [%d] = %v want %v", ctx, i, got[i], want[i])
		}
	}
}

func randSignal(rng *rand.Rand, n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = rng.NormFloat64()
	}
	return s
}

func TestFFTMatchesRef(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	withBothDispatch(t, func(t *testing.T, on bool) {
		for n := 1; n <= 1024; n <<= 1 {
			for _, inverse := range []bool{false, true} {
				x := make([]complex128, n)
				for i := range x {
					x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
				}
				want := append([]complex128(nil), x...)
				fftInPlace(x, inverse)
				fftInPlaceRef(want, inverse)
				c128BitsEqual(t, "fft", x, want)
			}
		}
	})
}

func TestRealFFTMagnitudeMatchesRef(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	withBothDispatch(t, func(t *testing.T, on bool) {
		for _, n := range []int{1, 3, 7, 63, 200, 256, 500} {
			x := randSignal(rng, n)
			nfft := NextPow2(n)
			got := make([]float64, nfft/2+1)
			want := make([]float64, nfft/2+1)
			realFFTMagnitudeInto(got, x, nfft)
			realFFTMagnitudeIntoRef(want, x, nfft)
			f64BitsEqual(t, "magnitude", got, want)
		}
	})
}

func TestPowerSpectrumMatchesRef(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	withBothDispatch(t, func(t *testing.T, on bool) {
		for _, n := range []int{1, 5, 200, 256} {
			x := randSignal(rng, n)
			nfft := NextPow2(n)
			got := make([]float64, nfft/2+1)
			want := make([]float64, nfft/2+1)
			powerSpectrumInto(got, x, nfft)
			powerSpectrumIntoRef(want, x, nfft)
			f64BitsEqual(t, "power", got, want)
		}
	})
}

func TestAutocorrelationMatchesRef(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	withBothDispatch(t, func(t *testing.T, on bool) {
		for _, n := range []int{1, 2, 7, 8, 9, 40, 160, 400} {
			x := randSignal(rng, n)
			for _, lags := range []int{1, 3, 8, 11, n} {
				if lags > n {
					continue
				}
				got := make([]float64, lags)
				want := make([]float64, lags)
				autocorrelationInto(got, x)
				autocorrelationIntoRef(want, x)
				f64BitsEqual(t, "autocorr", got, want)
			}
		}
	})
}

// TestDCTIIMatchesTable pins the satellite change: the exported DCTII now
// routes through the cached cosine basis, and must reproduce the
// recompute-every-cosine original bit for bit.
func TestDCTIIMatchesTable(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	withBothDispatch(t, func(t *testing.T, on bool) {
		for _, n := range []int{1, 2, 7, 8, 13, 26, 40} {
			x := randSignal(rng, n)
			f64BitsEqual(t, "dctII", DCTII(x), dctIIRef(x))

			got := make([]float64, (n+1)/2)
			want := make([]float64, (n+1)/2)
			dctIIInto(got, x)
			dctIIIntoRef(want, x)
			f64BitsEqual(t, "dctIIInto", got, want)
		}
	})
}

func TestPreEmphasisMatchesRef(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	withBothDispatch(t, func(t *testing.T, on bool) {
		for _, n := range []int{1, 2, 4, 5, 33, 200} {
			x := randSignal(rng, n)
			got := make([]float64, n)
			want := make([]float64, n)
			preEmphasisInto(got, x, 0.97)
			preEmphasisIntoRef(want, x, 0.97)
			f64BitsEqual(t, "preemph", got, want)
		}
	})
}

func TestApplyWindowMatchesRef(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	withBothDispatch(t, func(t *testing.T, on bool) {
		for _, n := range []int{0, 1, 3, 4, 7, 64, 200} {
			w := HammingWindow(n)
			x := randSignal(rng, n)
			want := append([]float64(nil), x...)
			ApplyWindow(x, w)
			applyWindowRef(want, w)
			f64BitsEqual(t, "window", x, want)
		}
	})
}

func TestMelEnergiesMatchRef(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	withBothDispatch(t, func(t *testing.T, on bool) {
		for _, nFilters := range []int{3, 8, 11, 26} {
			bank, err := melFilterBankCached(nFilters, 256, 8000, 0, 0)
			if err != nil {
				t.Fatal(err)
			}
			ps := make([]float64, 129)
			for i := range ps {
				ps[i] = math.Abs(rng.NormFloat64())
			}
			got := make([]float64, nFilters)
			want := make([]float64, nFilters)
			m := 0
			for gi := range bank.groups {
				g := &bank.groups[gi]
				var e [8]float64
				simd.DotI8(&e, g.w, ps[g.lo:g.hi])
				for l := 0; l < 8; l, m = l+1, m+1 {
					got[m] = math.Log(math.Max(e[l], 1e-12))
				}
			}
			for ; m < len(bank.rows); m++ {
				var e float64
				row := bank.rows[m]
				for k := bank.lo[m]; k < bank.hi[m]; k++ {
					e += row[k] * ps[k]
				}
				got[m] = math.Log(math.Max(e, 1e-12))
			}
			melEnergiesRef(want, bank, ps)
			f64BitsEqual(t, "mel", got, want)
		}
	})
}

// TestMFCCDispatchInvariant runs the whole pipeline at both dispatch
// settings and requires bit-identical frames — the property that keeps
// every downstream golden fingerprint stable across hosts with and
// without the vector backend. The configs span delta on/off,
// pre-emphasis on/off, hop<frameLen, hop==frameLen and hop>frameLen, and
// non-pow2 frame lengths; the signal lengths include shorter than one
// frame and exact frame multiples.
func TestMFCCDispatchInvariant(t *testing.T) {
	if !simd.Available() {
		t.Skip("no vector backend on this host")
	}
	delta := DefaultMFCCConfig(8000)
	delta.IncludeDelta = true
	noPre := DefaultMFCCConfig(16000)
	noPre.PreEmphasis = 0
	cfgs := []struct {
		name string
		cfg  MFCCConfig
	}{
		{"delta", delta},
		{"default", DefaultMFCCConfig(16000)},
		{"nopre", noPre},
		{"smallhop", MFCCConfig{SampleRate: 8000, FrameLen: 64, Hop: 16, NumFilters: 20, NumCoeffs: 10, PreEmphasis: 0.95, IncludeDelta: true}},
		{"eqhop", MFCCConfig{SampleRate: 8000, FrameLen: 50, Hop: 50, NumFilters: 18, NumCoeffs: 9, PreEmphasis: 0.97}},
		{"bighop", MFCCConfig{SampleRate: 8000, FrameLen: 32, Hop: 48, NumFilters: 16, NumCoeffs: 8, PreEmphasis: 0.9, IncludeDelta: true}},
	}

	prev := simd.Enabled()
	defer simd.SetEnabled(prev)
	rng := rand.New(rand.NewSource(28))
	for _, c := range cfgs {
		name, cfg := c.name, c.cfg
		for _, n := range []int{1, cfg.FrameLen - 1, cfg.FrameLen, cfg.FrameLen + cfg.Hop, 3*cfg.Hop + cfg.FrameLen, 4000} {
			sig := make([]float64, n)
			for i := range sig {
				sig[i] = math.Sin(float64(i)*0.03) + 0.1*rng.NormFloat64()
			}
			simd.SetEnabled(true)
			on, err := MFCC(sig, cfg)
			if err != nil {
				t.Fatal(err)
			}
			simd.SetEnabled(false)
			off, err := MFCC(sig, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if len(on) != len(off) {
				t.Fatalf("%s n=%d: frame count %d vs %d", name, n, len(on), len(off))
			}
			for i := range on {
				f64BitsEqual(t, fmt.Sprintf("%s n=%d mfcc frame %d", name, n, i), on[i], off[i])
			}
		}
	}
}

// FuzzDSPSimdDiff drives every vectorized DSP transform against its
// scalar reference over fuzz-chosen lengths, lags, and contents
// (finite values — the domain of the bit-exactness contract), at both
// dispatch settings, covering the n<4 and n%8 remainder paths.
func FuzzDSPSimdDiff(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}, uint8(3), uint8(5))
	f.Add([]byte{0xFF, 0x80, 0x01, 0x00, 0x42, 0x9A, 0x77, 0xC3}, uint8(60), uint8(1))
	f.Add([]byte{10, 20, 30}, uint8(0), uint8(0))
	f.Add([]byte{0x55, 0xAA, 0x12, 0x34, 0x56, 0x78, 0x9A, 0xBC, 0xDE, 0xF0,
		0x11, 0x22, 0x33, 0x44, 0x55, 0x66, 0x77, 0x88}, uint8(13), uint8(26))
	f.Fuzz(func(t *testing.T, data []byte, lags, coeffs uint8) {
		if len(data) == 0 || len(data) > 2048 {
			return
		}
		x := make([]float64, len(data))
		for i, b := range data {
			x[i] = (float64(b) - 127.5) / 32
		}
		n := len(x)
		prev := simd.Enabled()
		defer simd.SetEnabled(prev)
		settings := []bool{false}
		if simd.Available() {
			settings = []bool{true, false}
		}
		for _, on := range settings {
			simd.SetEnabled(on)

			nfft := NextPow2(n)
			got := make([]float64, nfft/2+1)
			want := make([]float64, nfft/2+1)
			powerSpectrumInto(got, x, nfft)
			powerSpectrumIntoRef(want, x, nfft)
			f64BitsEqual(t, "power", got, want)

			realFFTMagnitudeInto(got, x, nfft)
			realFFTMagnitudeIntoRef(want, x, nfft)
			f64BitsEqual(t, "magnitude", got, want)

			nl := int(lags)%n + 1
			ac, acRef := make([]float64, nl), make([]float64, nl)
			autocorrelationInto(ac, x)
			autocorrelationIntoRef(acRef, x)
			f64BitsEqual(t, "autocorr", ac, acRef)

			nc := int(coeffs)%n + 1
			dc, dcRef := make([]float64, nc), make([]float64, nc)
			dctIIInto(dc, x)
			dctIIIntoRef(dcRef, x)
			f64BitsEqual(t, "dct", dc, dcRef)

			pe, peRef := make([]float64, n), make([]float64, n)
			preEmphasisInto(pe, x, 0.97)
			preEmphasisIntoRef(peRef, x, 0.97)
			f64BitsEqual(t, "preemph", pe, peRef)

			wX := append([]float64(nil), x...)
			wRef := append([]float64(nil), x...)
			win := hammingWindowCached(n)
			ApplyWindow(wX, win)
			applyWindowRef(wRef, win)
			f64BitsEqual(t, "window", wX, wRef)
		}
	})
}
