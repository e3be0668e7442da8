package h264

import (
	"bytes"
	"math/rand"
	"testing"

	"affectedge/internal/simd"
)

// Differential tests pinning the vectorized pixel kernels (sadBlock's
// PSADBW interior path, the deblocking filter's precomputed edge masks)
// against the verbatim historical implementations in pixel_ref_test.go, with
// the vector backend both enabled and force-disabled.

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

func randFrame(rng *rand.Rand, w, h int) *Frame {
	f, err := NewFrame(w, h)
	if err != nil {
		panic(err)
	}
	for i := range f.Y {
		f.Y[i] = uint8(rng.Intn(256))
	}
	for i := range f.Cb {
		f.Cb[i] = uint8(rng.Intn(256))
	}
	for i := range f.Cr {
		f.Cr[i] = uint8(rng.Intn(256))
	}
	return f
}

// flattenFrame copies src and quantizes luma towards a plateau so that
// neighboring samples differ by little — the regime where the deblock
// thresholds actually pass and the filter taps run.
func flattenFrame(src *Frame, base, spread uint8) *Frame {
	f := src.Clone()
	for i, v := range f.Y {
		f.Y[i] = base + v%spread
	}
	return f
}

// TestSADBlockMatchesRef holds sadBlock and PredictInter4 to their
// YAt-based references over every block and a spread of vectors, many
// reaching past the frame's edges.
func TestSADBlockMatchesRef(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	orig := randFrame(rng, 48, 32)
	ref := randFrame(rng, 48, 32)
	mvs := []MV{
		{0, 0}, {1, 0}, {0, 1}, {-1, -1}, {3, -2},
		{-5, 7}, {16, 16}, {-48, 0}, {0, -32}, {100, 100}, {-100, -100},
	}
	withBothDispatch(t, func(t *testing.T, on bool) {
		for by := 0; by < orig.Height; by += 4 {
			for bx := 0; bx < orig.Width; bx += 4 {
				for _, mv := range mvs {
					got := sadBlock(orig, ref, bx, by, mv)
					want := sadBlockRef(orig, ref, bx, by, mv)
					if got != want {
						t.Fatalf("enabled=%v block (%d,%d) mv %+v: sad %d want %d",
							on, bx, by, mv, got, want)
					}
					if p, w := PredictInter4(ref, bx, by, mv), predictInter4Ref(ref, bx, by, mv); p != w {
						t.Fatalf("block (%d,%d) mv %+v: PredictInter4 %v want %v", bx, by, mv, p, w)
					}
				}
			}
		}
	})
}

func randMBs(rng *rand.Rand, n int) []mbInfo {
	mbs := make([]mbInfo, n)
	for i := range mbs {
		mbs[i] = mbInfo{
			intra: rng.Intn(3) == 0,
			coded: rng.Intn(2) == 0,
			mv:    MV{X: rng.Intn(9) - 4, Y: rng.Intn(9) - 4},
		}
	}
	return mbs
}

func checkDeblockMatchesRef(t *testing.T, ctx string, f *Frame, mbs []mbInfo, qp int) {
	t.Helper()
	got := f.Clone()
	want := f.Clone()
	gotStats := DeblockFrame(got, mbs, qp)
	wantStats := deblockFrameRef(want, mbs, qp)
	if gotStats != wantStats {
		t.Fatalf("%s qp=%d: stats %+v want %+v", ctx, qp, gotStats, wantStats)
	}
	if !bytes.Equal(got.Y, want.Y) {
		for i := range got.Y {
			if got.Y[i] != want.Y[i] {
				t.Fatalf("%s qp=%d: Y[%d]=%d want %d (x=%d y=%d)",
					ctx, qp, i, got.Y[i], want.Y[i], i%f.Width, i/f.Width)
			}
		}
	}
}

func TestDeblockFrameMatchesRef(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	qps := []int{0, 10, 15, 16, 20, 28, 36, 44, 51}
	withBothDispatch(t, func(t *testing.T, on bool) {
		for trial := 0; trial < 6; trial++ {
			w := 16 * (1 + rng.Intn(3))
			h := 16 * (1 + rng.Intn(3))
			noisy := randFrame(rng, w, h)
			flat := flattenFrame(noisy, 100, uint8(2+rng.Intn(30)))
			mbs := randMBs(rng, (w/16)*(h/16))
			for _, qp := range qps {
				checkDeblockMatchesRef(t, "noisy", noisy, mbs, qp)
				checkDeblockMatchesRef(t, "flat", flat, mbs, qp)
			}
		}
	})
}

// FuzzSADDiff drives both pixel kernels against the references over
// fuzz-chosen frame contents, block positions, motion vectors, and QPs,
// at both dispatch settings — including misaligned rows, saturated
// differences, and edge/exterior motion that exercises sadBlock's
// clamped fallback alongside the packed interior path.
func FuzzSADDiff(f *testing.F) {
	f.Add([]byte{0, 255, 128, 7}, uint8(0), uint8(0), int8(0), int8(0), uint8(28))
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9}, uint8(4), uint8(8), int8(-3), int8(5), uint8(51))
	f.Add([]byte{0x42}, uint8(12), uint8(12), int8(127), int8(-128), uint8(10))
	f.Add(bytes.Repeat([]byte{100, 101, 103, 99}, 16), uint8(7), uint8(3), int8(1), int8(0), uint8(40))
	f.Fuzz(func(t *testing.T, data []byte, bxr, byr uint8, mvx, mvy int8, qpr uint8) {
		if len(data) == 0 {
			return
		}
		const w, h = 32, 32
		orig, _ := NewFrame(w, h)
		ref, _ := NewFrame(w, h)
		for i := range orig.Y {
			orig.Y[i] = data[i%len(data)]
			ref.Y[i] = data[(i*7+3)%len(data)]
		}
		bx := int(bxr) % (w - 3)
		by := int(byr) % (h - 3)
		mv := MV{X: int(mvx), Y: int(mvy)}
		qp := int(qpr) % 52
		mbs := make([]mbInfo, (w/16)*(h/16))
		for i := range mbs {
			b := data[i%len(data)]
			mbs[i] = mbInfo{
				intra: b&1 != 0,
				coded: b&2 != 0,
				mv:    MV{X: int(b>>2) - 16, Y: int(b>>4) - 8},
			}
		}

		prev := simd.Enabled()
		defer simd.SetEnabled(prev)
		settings := []bool{false}
		if simd.Available() {
			settings = []bool{true, false}
		}
		for _, on := range settings {
			simd.SetEnabled(on)
			got := sadBlock(orig, ref, bx, by, mv)
			want := sadBlockRef(orig, ref, bx, by, mv)
			if got != want {
				t.Fatalf("enabled=%v sad (%d,%d) mv %+v: %d want %d", on, bx, by, mv, got, want)
			}
			checkDeblockMatchesRef(t, "fuzz", orig, mbs, qp)
		}
	})
}
