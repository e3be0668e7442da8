package simd

import (
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
)

// withBothDispatch runs fn once with the vector backend enabled (when
// the host has one) and once force-disabled, restoring the prior
// setting afterwards. The enabled argument lets the body label
// failures.
func withBothDispatch(t *testing.T, fn func(t *testing.T, enabled bool)) {
	t.Helper()
	prev := Enabled()
	defer SetEnabled(prev)
	if Available() {
		SetEnabled(true)
		fn(t, true)
	}
	SetEnabled(false)
	fn(t, false)
}

func randSlice(rng *rand.Rand, n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(7)-3))
	}
	return s
}

func bitsEqual(a, b []float64) (int, bool) {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i, false
		}
	}
	return 0, true
}

func TestSetEnabled(t *testing.T) {
	prev := Enabled()
	defer SetEnabled(prev)
	if got := SetEnabled(false); got != prev {
		t.Fatalf("SetEnabled returned %v, want previous %v", got, prev)
	}
	if Enabled() {
		t.Fatal("Enabled() true after SetEnabled(false)")
	}
	SetEnabled(true)
	if Enabled() != Available() {
		t.Fatalf("Enabled()=%v after SetEnabled(true), want Available()=%v", Enabled(), Available())
	}
}

func TestAxpy4Diff(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	withBothDispatch(t, func(t *testing.T, on bool) {
		for n := 0; n <= 70; n++ {
			dst := randSlice(rng, n)
			want := append([]float64(nil), dst...)
			s0, s1, s2, s3 := randSlice(rng, n), randSlice(rng, n), randSlice(rng, n), randSlice(rng, n)
			a0, a1, a2, a3 := rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()
			Axpy4(dst, s0, s1, s2, s3, a0, a1, a2, a3)
			Axpy4Ref(want, s0, s1, s2, s3, a0, a1, a2, a3)
			if i, ok := bitsEqual(dst, want); !ok {
				t.Fatalf("enabled=%v n=%d: dst[%d]=%x want %x", on, n, i,
					math.Float64bits(dst[i]), math.Float64bits(want[i]))
			}
		}
	})
}

func TestAdamDiff(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	withBothDispatch(t, func(t *testing.T, on bool) {
		for n := 0; n <= 70; n++ {
			w := randSlice(rng, n)
			g := randSlice(rng, n)
			m := randSlice(rng, n)
			v := make([]float64, n)
			for i := range v {
				v[i] = math.Abs(rng.NormFloat64())
			}
			w2 := append([]float64(nil), w...)
			g2 := append([]float64(nil), g...)
			m2 := append([]float64(nil), m...)
			v2 := append([]float64(nil), v...)
			inv, b1, b2 := 1.0/32, 0.9, 0.999
			c1, c2 := 1-math.Pow(b1, 7), 1-math.Pow(b2, 7)
			Adam(w, g, m, v, inv, b1, b2, c1, c2, 1e-3, 1e-8)
			AdamRef(w2, g2, m2, v2, inv, b1, b2, c1, c2, 1e-3, 1e-8)
			for name, pair := range map[string][2][]float64{"w": {w, w2}, "m": {m, m2}, "v": {v, v2}} {
				if i, ok := bitsEqual(pair[0], pair[1]); !ok {
					t.Fatalf("enabled=%v n=%d: %s[%d] mismatch", on, n, name, i)
				}
			}
		}
	})
}

func TestDotI8Diff(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	withBothDispatch(t, func(t *testing.T, on bool) {
		for n := 0; n <= 70; n++ {
			w := randSlice(rng, 8*n)
			x := randSlice(rng, n)
			var got, want [8]float64
			DotI8(&got, w, x)
			DotI8Ref(&want, w, x)
			if i, ok := bitsEqual(got[:], want[:]); !ok {
				t.Fatalf("enabled=%v n=%d: lane %d %x want %x", on, n, i,
					math.Float64bits(got[i]), math.Float64bits(want[i]))
			}
		}
	})
}

func TestLagDot8Diff(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	withBothDispatch(t, func(t *testing.T, on bool) {
		for n := 0; n <= 80; n += 3 {
			x := randSlice(rng, n)
			for k := 0; k <= n+5; k++ {
				var got, want [8]float64
				LagDot8(&got, x, k)
				LagDot8Ref(&want, x, k)
				if i, ok := bitsEqual(got[:], want[:]); !ok {
					t.Fatalf("enabled=%v n=%d k=%d: lane %d", on, n, k, i)
				}
			}
		}
	})
}

func TestMulDiff(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	withBothDispatch(t, func(t *testing.T, on bool) {
		for n := 0; n <= 70; n++ {
			for off := 0; off < 4 && off <= n; off++ {
				dst := randSlice(rng, n)
				src := randSlice(rng, n)
				want := append([]float64(nil), dst...)
				Mul(dst[off:], src[off:])
				MulRef(want[off:], src[off:])
				if i, ok := bitsEqual(dst, want); !ok {
					t.Fatalf("enabled=%v n=%d off=%d: dst[%d]", on, n, off, i)
				}
			}
		}
	})
}

func TestSubScaledDiff(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	withBothDispatch(t, func(t *testing.T, on bool) {
		for n := 0; n <= 70; n++ {
			for off := 0; off < 4 && off <= n; off++ {
				x := randSlice(rng, n)
				y := randSlice(rng, n)
				c := rng.NormFloat64()
				dst := make([]float64, n)
				want := make([]float64, n)
				SubScaled(dst[off:], x[off:], y[off:], c)
				SubScaledRef(want[off:], x[off:], y[off:], c)
				if i, ok := bitsEqual(dst, want); !ok {
					t.Fatalf("enabled=%v n=%d off=%d: dst[%d]", on, n, off, i)
				}
			}
		}
	})
}

func TestSqScaleDiff(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	withBothDispatch(t, func(t *testing.T, on bool) {
		for n := 0; n <= 70; n++ {
			dst := randSlice(rng, n)
			want := append([]float64(nil), dst...)
			s := rng.NormFloat64()
			SqScale(dst, s)
			SqScaleRef(want, s)
			if i, ok := bitsEqual(dst, want); !ok {
				t.Fatalf("enabled=%v n=%d: dst[%d]", on, n, i)
			}
		}
	})
}

func TestCAbsDiff(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	inf := math.Inf(1)
	nan := math.NaN()
	specials := []complex128{
		0, complex(-0.0, 0), complex(0, -0.0), complex(math.Copysign(0, -1), math.Copysign(0, -1)),
		complex(inf, 3), complex(3, inf), complex(-inf, 3), complex(3, -inf),
		complex(inf, inf), complex(inf, nan), complex(nan, inf),
		complex(nan, 3), complex(3, nan), complex(nan, nan), complex(nan, 0),
		complex(1e308, 1e308), complex(5e-324, 0), complex(5e-324, 5e-324),
		complex(2.2250738585072014e-308, 1e-310), complex(1e300, 1e-300),
		complex(1, 1), complex(3, 4),
	}
	withBothDispatch(t, func(t *testing.T, on bool) {
		for n := 0; n <= 40; n++ {
			src := make([]complex128, n)
			for i := range src {
				if rng.Intn(4) == 0 && len(specials) > 0 {
					src[i] = specials[rng.Intn(len(specials))]
				} else {
					src[i] = complex(rng.NormFloat64()*1e3, rng.NormFloat64()*1e-3)
				}
			}
			dst := make([]float64, n)
			want := make([]float64, n)
			CAbs(dst, src)
			CAbsRef(want, src)
			if i, ok := bitsEqual(dst, want); !ok {
				t.Fatalf("enabled=%v n=%d: |%v| = %x want %x", on, n, src[i],
					math.Float64bits(dst[i]), math.Float64bits(want[i]))
			}
		}
		// Every special in every lane position.
		for lane := 0; lane < 4; lane++ {
			for _, z := range specials {
				src := make([]complex128, 4)
				for i := range src {
					src[i] = complex(1, 2)
				}
				src[lane] = z
				dst := make([]float64, 4)
				want := make([]float64, 4)
				CAbs(dst, src)
				CAbsRef(want, src)
				if i, ok := bitsEqual(dst, want); !ok {
					t.Fatalf("enabled=%v lane=%d special=%v: got %x want %x (cmplx.Abs=%v)",
						on, lane, z, math.Float64bits(dst[i]), math.Float64bits(want[i]), cmplx.Abs(z))
				}
			}
		}
	})
}

func TestWidenDiff(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	withBothDispatch(t, func(t *testing.T, on bool) {
		for n := 0; n <= 70; n++ {
			src := randSlice(rng, n)
			dst := make([]complex128, n)
			want := make([]complex128, n)
			Widen(dst, src)
			WidenRef(want, src)
			for i := range dst {
				if dst[i] != want[i] || math.Signbit(imag(dst[i])) != math.Signbit(imag(want[i])) {
					t.Fatalf("enabled=%v n=%d: dst[%d]=%v want %v", on, n, i, dst[i], want[i])
				}
			}
		}
	})
}

func randComplex(rng *rand.Rand, n int) []complex128 {
	s := make([]complex128, n)
	for i := range s {
		s[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	return s
}

func complexBitsEqual(a, b []complex128) (int, bool) {
	for i := range a {
		if math.Float64bits(real(a[i])) != math.Float64bits(real(b[i])) ||
			math.Float64bits(imag(a[i])) != math.Float64bits(imag(b[i])) {
			return i, false
		}
	}
	return 0, true
}

func TestFFTStageDiff(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	withBothDispatch(t, func(t *testing.T, on bool) {
		for n := 4; n <= 256; n <<= 1 {
			for size := 4; size <= n; size <<= 1 {
				x := randComplex(rng, n)
				want := append([]complex128(nil), x...)
				tw := randComplex(rng, size/2)
				FFTStage(x, size, tw)
				FFTStageRef(want, size, tw)
				if i, ok := complexBitsEqual(x, want); !ok {
					t.Fatalf("enabled=%v n=%d size=%d: x[%d]=%v want %v", on, n, size, i, x[i], want[i])
				}
			}
		}
	})
}

func TestFFTStage2Diff(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	withBothDispatch(t, func(t *testing.T, on bool) {
		for _, nb := range []int{0, 1, 2, 3, 5, 8, 17, 64} {
			for _, w := range []complex128{1, complex(0.3, -0.95), complex(-1, 0)} {
				x := randComplex(rng, 2*nb)
				want := append([]complex128(nil), x...)
				FFTStage2(x, w)
				fftStage2Ref(want, w)
				if i, ok := complexBitsEqual(x, want); !ok {
					t.Fatalf("enabled=%v nb=%d w=%v: x[%d]", on, nb, w, i)
				}
			}
		}
	})
}

func TestSAD4x4Diff(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	withBothDispatch(t, func(t *testing.T, on bool) {
		for trial := 0; trial < 200; trial++ {
			as := 4 + rng.Intn(14)
			bs := 4 + rng.Intn(14)
			a := make([]byte, 3*as+4+8)
			b := make([]byte, 3*bs+4+8)
			rng.Read(a)
			rng.Read(b)
			got := SAD4x4(a, as, b, bs)
			want := SAD4x4Ref(a, as, b, bs)
			if got != want {
				t.Fatalf("enabled=%v trial=%d: got %d want %d", on, trial, got, want)
			}
		}
	})
}

// deblockBuf returns a random plane for DeblockMB: stride is at least
// 24, so a vertical call's 24-sample row windows never alias, and the
// macroblock at deblockOff(stride) has the eight columns and four rows
// that edge 0 reads to its left and above.
func deblockBuf(rng *rand.Rand, trial int) (y []byte, stride int) {
	stride = 24 + rng.Intn(16)
	y = make([]byte, 21*stride+16)
	rng.Read(y)
	switch trial % 3 {
	case 0:
		// Flat-ish data so thresholds pass and taps actually run.
		base := byte(rng.Intn(256))
		for i := range y {
			y[i] = base + byte(rng.Intn(5))
		}
	case 1:
		// Steps every four columns and rows: large p/q gaps exercise
		// the clips on every edge.
		for i := range y {
			y[i] = byte(40 + rng.Intn(3))
			if (i%stride/4+i/stride/4)%2 == 1 {
				y[i] = byte(200 + rng.Intn(3))
			}
		}
	}
	return y, stride
}

// deblockOff is the macroblock's top-left sample in a deblockBuf plane.
func deblockOff(stride int) int { return 4*stride + 8 }

// checkDeblockMB runs the kernel and the reference on copies of y and
// fails on any difference in the masks or the bytes.
func checkDeblockMB(t *testing.T, y []byte, stride int, vertical bool, alpha, beta int32, tc0 *[4]int32, edges, strong uint8) {
	t.Helper()
	off := deblockOff(stride)
	got := append([]byte(nil), y...)
	want := append([]byte(nil), y...)
	g0, gP, gQ := DeblockMB(got, off, stride, vertical, alpha, beta, tc0, edges, strong)
	w0, wP, wQ := DeblockMBRef(want, off, stride, vertical, alpha, beta, tc0, edges, strong)
	ctx := fmt.Sprintf("enabled=%v v=%v edges=%04b strong=%04b a=%d b=%d tc0=%v", Enabled(), vertical, edges, strong, alpha, beta, *tc0)
	if g0 != w0 || gP != wP || gQ != wQ {
		t.Fatalf("%s: masks got %016x/%016x/%016x want %016x/%016x/%016x", ctx, g0, gP, gQ, w0, wP, wQ)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: byte %d (row %d col %d) got %d want %d (orig %d)",
				ctx, i, i/stride, i%stride, got[i], want[i], y[i])
		}
	}
}

// TestDeblockMBDiff holds DeblockMB to DeblockMBRef over random planes
// at every edge mask and every strong-filter pattern, both directions.
func TestDeblockMBDiff(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	thresholds := []int32{1, 2, 4, 17, 100, 254, 255}
	withBothDispatch(t, func(t *testing.T, on bool) {
		trial := 0
		for edges := 0; edges < 16; edges++ {
			for strong := 0; strong < 16; strong++ {
				for _, vertical := range []bool{false, true} {
					y, stride := deblockBuf(rng, trial)
					trial++
					var tc0 [4]int32
					for e := range tc0 {
						tc0[e] = int32(rng.Intn(26))
					}
					alpha := thresholds[rng.Intn(len(thresholds))]
					beta := thresholds[rng.Intn(len(thresholds))]
					checkDeblockMB(t, y, stride, vertical, alpha, beta, &tc0, uint8(edges), uint8(strong))
				}
			}
		}
	})
}

// TestDeblockEdge16Diff drives DeblockMB one edge at a time: a single
// 16-segment edge at each position, normal and strong, both directions.
func TestDeblockEdge16Diff(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	thresholds := []int32{1, 2, 4, 17, 100, 254, 255}
	withBothDispatch(t, func(t *testing.T, on bool) {
		for trial := 0; trial < 600; trial++ {
			y, stride := deblockBuf(rng, trial)
			edges := uint8(1) << rng.Intn(4)
			alpha := thresholds[rng.Intn(len(thresholds))]
			beta := thresholds[rng.Intn(len(thresholds))]
			tc0 := int32(rng.Intn(26))
			var strong uint8
			if trial%2 == 1 {
				strong = edges
			}
			vertical := trial%4 < 2
			checkDeblockMB(t, y, stride, vertical, alpha, beta, &[4]int32{tc0, tc0, tc0, tc0}, edges, strong)
		}
	})
}

// FuzzDeblockEdge16Diff drives DeblockMB against DeblockMBRef over
// fuzz-chosen samples, thresholds, clipping bound, filter strength and
// edge direction, at both dispatch settings; baser picks which of the
// macroblock's four edges runs.
func FuzzDeblockEdge16Diff(f *testing.F) {
	f.Add([]byte{100, 101, 103, 99, 100, 102}, uint8(0), uint8(40), uint8(6), uint8(4), false, false)
	f.Add([]byte{100, 101, 103, 99, 100, 102}, uint8(3), uint8(40), uint8(6), uint8(4), true, true)
	f.Add([]byte{0, 255, 0, 255}, uint8(1), uint8(255), uint8(18), uint8(25), false, true)
	f.Add([]byte{40, 41, 42, 200, 201, 202}, uint8(2), uint8(255), uint8(255), uint8(0), true, false)
	f.Fuzz(func(t *testing.T, data []byte, baser, alphar, betar, tc0r uint8, strong, vertical bool) {
		if len(data) == 0 {
			return
		}
		const stride = 24
		y := make([]byte, 21*stride+16)
		for i := range y {
			y[i] = data[i%len(data)]
		}
		edges := uint8(1) << (baser % 4)
		alpha := int32(alphar)
		if alpha == 0 {
			alpha = 1
		}
		beta := int32(betar)
		if beta == 0 {
			beta = 1
		}
		tc0 := int32(tc0r % 26)
		var s uint8
		if strong {
			s = edges
		}
		prev := Enabled()
		defer SetEnabled(prev)
		for _, on := range []bool{true, false} {
			SetEnabled(on)
			checkDeblockMB(t, y, stride, vertical, alpha, beta, &[4]int32{tc0, tc0, tc0, tc0}, edges, s)
		}
	})
}
