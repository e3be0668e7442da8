package fleet

import (
	"encoding/binary"
	"math"
	"testing"

	"affectedge/internal/nn"
)

// The scans below are the admission check and the apply-path reading of
// logits as the fleet first wrote them: plain branchy loops, kept as the
// oracles that Finite and classify must match bit for bit.

// finite reports whether x holds no NaN or ±Inf.
func finite(x []float64) bool {
	for _, v := range x {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

// confidence maps logits to [0,1) via the top-2 margin m: m/(1+m).
func confidence(logits []float64) float64 {
	if len(logits) < 2 {
		return 1
	}
	top, second := math.Inf(-1), math.Inf(-1)
	for _, v := range logits {
		if v > top {
			top, second = v, top
		} else if v > second {
			second = v
		}
	}
	m := top - second
	return m / (1 + m)
}

// checkClassify fails t unless classify(logits) equals the oracle pair
// (nn.Argmax, confidence) exactly: same label, same confidence bits (or
// NaN on both sides, as ±Inf ties produce).
func checkClassify(t *testing.T, logits []float64) {
	t.Helper()
	label, conf := classify(logits)
	wantLabel, wantConf := nn.Argmax(logits), confidence(logits)
	sameConf := math.Float64bits(conf) == math.Float64bits(wantConf) || (math.IsNaN(conf) && math.IsNaN(wantConf))
	if label != wantLabel || !sameConf {
		t.Errorf("classify(%v) = (%d, %v [%#x]), oracle (%d, %v [%#x])",
			logits, label, conf, math.Float64bits(conf), wantLabel, wantConf, math.Float64bits(wantConf))
	}
}

// TestClassifyMatchesOracle pins classify to the two-pass oracle on the
// cases a fused top-2 scan gets wrong first: ties (everywhere, at the
// front, at the back), signed zeros in either order, infinities, and
// fewer than two logits.
func TestClassifyMatchesOracle(t *testing.T) {
	negZero := math.Copysign(0, -1)
	inf := math.Inf(1)
	for _, logits := range [][]float64{
		nil,
		{},
		{3},
		{-2},
		{1, 1, 1, 1},
		{5, 5, 1, 2},
		{1, 2, 5, 5},
		{5, 1, 2, 5},
		{negZero, 0},
		{0, negZero},
		{negZero, negZero, -1},
		{-1, negZero, 0, negZero},
		{-3, 0, negZero},
		{0, -1, negZero, 0},
		{negZero, -0.5},
		{2, 1, 0.5, -8, 1.99},
		{-inf, -inf},
		{inf, 1, inf},
		{-inf, -1, -inf},
		{1, -inf},
		{0.25, 0.75, 0.5, 0.75, 0.125, 0.6, 0.7, 0.1},
	} {
		checkClassify(t, logits)
	}
}

// FuzzClassify diffs Finite against its oracle on arbitrary float64 bit
// patterns (8 bytes per value, little-endian), then classify against the
// oracle pair on the same values with NaNs removed — the domain the apply
// path sees, since the int8 pipeline maps admitted rows to finite logits.
func FuzzClassify(f *testing.F) {
	word := func(vs ...float64) []byte {
		b := make([]byte, 0, 8*len(vs))
		for _, v := range vs {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
		return b
	}
	f.Add(word(1, 2, 3))
	f.Add(word(math.Copysign(0, -1), 0, 0))
	f.Add(word(4, 4, -1, 4))
	f.Add(word(math.Inf(-1), math.MaxFloat64, math.SmallestNonzeroFloat64, 0.5, 0.5, 0.25, 7, 6.5))
	f.Add(word(math.NaN(), 1))
	f.Fuzz(func(t *testing.T, data []byte) {
		vals := make([]float64, len(data)/8)
		for i := range vals {
			vals[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[8*i:]))
		}
		if got, want := Finite(vals), finite(vals); got != want {
			t.Errorf("Finite(%v) = %v, oracle %v", vals, got, want)
		}
		logits := vals[:0]
		for _, v := range vals {
			if !math.IsNaN(v) {
				logits = append(logits, v)
			}
		}
		checkClassify(t, logits)
	})
}
