package wire

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
)

// specialVals are the float64 bit patterns a value codec is most likely to
// mangle: quiet and signalling NaNs with payloads, ±Inf, ±0, subnormals
// and the extremes of the normal range.
func specialVals() []float64 {
	bits := []uint64{
		0x7ff8000000000000, // canonical quiet NaN
		0xfff8000000000001, // negative quiet NaN with payload
		0x7ff0000000000001, // signalling NaN, smallest payload
		0x7ff4deadbeef0123, // signalling NaN, arbitrary payload
		0x7ff0000000000000, // +Inf
		0xfff0000000000000, // -Inf
		0x0000000000000000, // +0
		0x8000000000000000, // -0
		0x0000000000000001, // smallest subnormal
		0x800fffffffffffff, // largest negative subnormal
		0x0010000000000000, // smallest normal
		0x7fefffffffffffff, // MaxFloat64
		0xffefffffffffffff, // -MaxFloat64
	}
	vals := make([]float64, len(bits))
	for i, b := range bits {
		vals[i] = math.Float64frombits(b)
	}
	return vals
}

// TestF64CodecMatchesLoop diffs the bulk value codec against the portable
// per-value loop on special patterns and random bit patterns, decoding
// from every byte offset modulo 8 so an unaligned value run inside a
// frame is covered.
func TestF64CodecMatchesLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	runs := [][]float64{nil, specialVals()}
	for _, n := range []int{1, 3, 24, 257} {
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = math.Float64frombits(rng.Uint64())
		}
		runs = append(runs, vals)
	}
	for _, vals := range runs {
		bulk := appendF64s([]byte{0xaa}, vals)
		loop := appendF64sLoop([]byte{0xaa}, vals)
		if !bytes.Equal(bulk, loop) {
			t.Fatalf("encode of %d values: bulk % x, loop % x", len(vals), bulk, loop)
		}
		for shift := 0; shift < 8; shift++ {
			src := append(make([]byte, shift), loop[1:]...)[shift:]
			got, want := make([]float64, len(vals)), make([]float64, len(vals))
			getF64s(got, src)
			getF64sLoop(want, src)
			for k := range want {
				if math.Float64bits(got[k]) != math.Float64bits(want[k]) || math.Float64bits(got[k]) != math.Float64bits(vals[k]) {
					t.Fatalf("decode of %d values at shift %d, value %d: bulk %#x, loop %#x, sent %#x",
						len(vals), shift, k, math.Float64bits(got[k]), math.Float64bits(want[k]), math.Float64bits(vals[k]))
				}
			}
		}
	}
}
