package dsp

import (
	"fmt"
	"math"

	"affectedge/internal/simd"
)

// HzToMel converts a frequency in Hz to the mel scale (HTK convention).
func HzToMel(hz float64) float64 { return 2595 * math.Log10(1+hz/700) }

// MelToHz converts a mel-scale value back to Hz.
func MelToHz(mel float64) float64 { return 700 * (math.Pow(10, mel/2595) - 1) }

// MelFilterBank builds nFilters triangular filters spanning [lowHz, highHz]
// over an nfft-point FFT at the given sample rate. Each row has
// nfft/2+1 weights. It returns an error for degenerate parameters.
func MelFilterBank(nFilters, nfft int, sampleRate, lowHz, highHz float64) ([][]float64, error) {
	if nFilters <= 0 || nfft <= 0 || sampleRate <= 0 {
		return nil, fmt.Errorf("dsp: invalid filterbank params (nFilters=%d nfft=%d rate=%g)", nFilters, nfft, sampleRate)
	}
	if highHz <= 0 || highHz > sampleRate/2 {
		highHz = sampleRate / 2
	}
	if lowHz < 0 || lowHz >= highHz {
		return nil, fmt.Errorf("dsp: invalid filterbank band [%g, %g]", lowHz, highHz)
	}
	nBins := nfft/2 + 1
	lowMel, highMel := HzToMel(lowHz), HzToMel(highHz)
	// nFilters+2 equally spaced points on the mel scale.
	points := make([]float64, nFilters+2)
	for i := range points {
		mel := lowMel + (highMel-lowMel)*float64(i)/float64(nFilters+1)
		points[i] = MelToHz(mel)
	}
	// Convert the Hz points to (fractional) FFT bin positions. Rows are
	// capacity-clipped views of one flat backing: the bank costs three
	// allocations however many filters it has.
	binOf := func(hz float64) float64 { return hz * float64(nfft) / sampleRate }
	bank := make([][]float64, nFilters)
	flat := make([]float64, nFilters*nBins)
	for m := 0; m < nFilters; m++ {
		row := flat[m*nBins : (m+1)*nBins : (m+1)*nBins]
		left, center, right := binOf(points[m]), binOf(points[m+1]), binOf(points[m+2])
		for k := 0; k < nBins; k++ {
			fk := float64(k)
			switch {
			case fk < left || fk > right:
				// outside the triangle
			case fk <= center:
				if center > left {
					row[k] = (fk - left) / (center - left)
				}
			default:
				if right > center {
					row[k] = (right - fk) / (right - center)
				}
			}
		}
		bank[m] = row
	}
	return bank, nil
}

// MFCCConfig parameterizes the MFCC extraction pipeline.
type MFCCConfig struct {
	SampleRate   float64 // samples per second
	FrameLen     int     // analysis frame length in samples
	Hop          int     // frame advance in samples
	NumFilters   int     // mel filterbank size
	NumCoeffs    int     // cepstral coefficients to keep
	PreEmphasis  float64 // pre-emphasis coefficient (0 disables)
	LowHz        float64 // filterbank low edge
	HighHz       float64 // filterbank high edge (0 = Nyquist)
	IncludeDelta bool    // append first-order deltas per frame
}

// DefaultMFCCConfig returns the configuration used by the affect feature
// pipeline: 25 ms frames with 10 ms hop, 26 mel filters, 13 coefficients.
func DefaultMFCCConfig(sampleRate float64) MFCCConfig {
	return MFCCConfig{
		SampleRate:  sampleRate,
		FrameLen:    int(sampleRate * 0.025),
		Hop:         int(sampleRate * 0.010),
		NumFilters:  26,
		NumCoeffs:   13,
		PreEmphasis: 0.97,
		LowHz:       0,
		HighHz:      0,
	}
}

// MFCC computes the mel-frequency cepstral coefficients of x, one row of
// cfg.NumCoeffs values per analysis frame (plus deltas when configured).
func MFCC(x []float64, cfg MFCCConfig) ([][]float64, error) {
	if len(x) == 0 {
		return nil, fmt.Errorf("dsp: MFCC of empty signal")
	}
	if cfg.FrameLen <= 0 || cfg.Hop <= 0 {
		return nil, fmt.Errorf("dsp: MFCC frame params invalid (len=%d hop=%d)", cfg.FrameLen, cfg.Hop)
	}
	if cfg.NumCoeffs <= 0 || cfg.NumCoeffs > cfg.NumFilters {
		return nil, fmt.Errorf("dsp: MFCC wants %d coeffs from %d filters", cfg.NumCoeffs, cfg.NumFilters)
	}
	sig := x
	var sigp *[]float64
	if cfg.PreEmphasis > 0 {
		sigp = getF64(len(x))
		sig = *sigp
		preEmphasisInto(sig, x, cfg.PreEmphasis)
	}
	nfft := NextPow2(cfg.FrameLen)
	bank, err := melFilterBankCached(cfg.NumFilters, nfft, cfg.SampleRate, cfg.LowHz, cfg.HighHz)
	if err != nil {
		if sigp != nil {
			putF64(sigp)
		}
		return nil, err
	}
	window := hammingWindowCached(cfg.FrameLen)
	// Rows are allocated at their final width so delta computation widens
	// nothing, and they are capacity-clipped views of one flat backing
	// counted up front — the whole frame matrix costs two allocations
	// regardless of clip length. All per-frame scratch (power spectrum,
	// filterbank energies) is pooled and the DCT basis is a shared table.
	rowWidth := cfg.NumCoeffs
	if cfg.IncludeDelta {
		rowWidth = 2 * cfg.NumCoeffs
	}
	nf := numFrames(len(sig), cfg.FrameLen, cfg.Hop)
	out := make([][]float64, 0, nf)
	flat := make([]float64, nf*rowWidth)
	psp := getF64(nfft/2 + 1)
	enp := getF64(cfg.NumFilters)
	ps, energies := *psp, *enp
	EachFrame(sig, cfg.FrameLen, cfg.Hop, func(i int, f []float64) {
		row := flat[i*rowWidth : (i+1)*rowWidth : (i+1)*rowWidth]
		mfccFrameInto(row[:cfg.NumCoeffs], f, window, bank, ps, energies, nfft)
		out = append(out, row)
	})
	putF64(psp)
	putF64(enp)
	if sigp != nil {
		putF64(sigp)
	}
	if cfg.IncludeDelta {
		fillDeltas(out, cfg.NumCoeffs)
	}
	return out, nil
}

// mfccFrameInto runs the per-frame cepstral chain on one analysis frame:
// window in place, power spectrum, filterbank energies -> log -> DCT into
// dst (len(dst) coefficients). Eight filters go per kernel call over the
// union of their supports (zero weights outside a filter's own triangle
// contribute exact +0 terms), leftover filters by their individual
// support. f is mutated (windowing); ps and energies are caller scratch
// of nfft/2+1 and filterbank size.
func mfccFrameInto(dst, f, window []float64, bank *melBank, ps, energies []float64, nfft int) {
	ApplyWindow(f, window)
	powerSpectrumInto(ps, f, nfft)
	m := 0
	for gi := range bank.groups {
		g := &bank.groups[gi]
		var e [8]float64
		simd.DotI8(&e, g.w, ps[g.lo:g.hi])
		for l := 0; l < 8; l, m = l+1, m+1 {
			// Floor to avoid log(0) on silent frames.
			energies[m] = math.Log(math.Max(e[l], 1e-12))
		}
	}
	for ; m < len(bank.rows); m++ {
		var e float64
		row := bank.rows[m]
		for k := bank.lo[m]; k < bank.hi[m]; k++ {
			e += row[k] * ps[k]
		}
		energies[m] = math.Log(math.Max(e, 1e-12))
	}
	dctIIInto(dst, energies)
}

// fillDeltas writes first-order frame-to-frame differences of the first d
// columns into columns [d, 2d) of each row (zero at boundaries). Rows must
// already have width 2d.
func fillDeltas(rows [][]float64, d int) {
	n := len(rows)
	for i := 0; i < n; i++ {
		if i > 0 && i < n-1 {
			for j := 0; j < d; j++ {
				rows[i][d+j] = (rows[i+1][j] - rows[i-1][j]) / 2
			}
		}
	}
}

// MeanVector averages the rows of a frame matrix into a single vector,
// the clip-level summary used by the affect feature pipeline.
func MeanVector(rows [][]float64) []float64 {
	if len(rows) == 0 {
		return nil
	}
	w := len(rows[0])
	out := make([]float64, w)
	for _, r := range rows {
		for j := 0; j < w && j < len(r); j++ {
			out[j] += r[j]
		}
	}
	inv := 1 / float64(len(rows))
	for j := range out {
		out[j] *= inv
	}
	return out
}
