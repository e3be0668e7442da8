package simd

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

// quantEdges are the inputs where a rounding or conversion shortcut
// would diverge from math.Round + int8(): NaN, ±Inf, ±0, exact ties on
// both sides of zero, the clamp edges, the largest value below 0.5, and
// magnitudes at and past 2^52 where every float is an integer.
var quantEdges = []float64{
	math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1),
	0.5, -0.5, 1.5, -1.5, 2.5, -2.5, 126.5, -127.5, 127.5, -128.5,
	127.49999999999999, -128.49999999999997, 128, -129, 0.49999999999999994,
	-0.49999999999999994, 1e-300, -1e-300, math.SmallestNonzeroFloat64,
	1 << 52, -(1 << 52), 1<<52 + 1, 1 << 53, 1e300, -1e300,
	math.MaxFloat64, -math.MaxFloat64, 3.7, -3.7, 64.5, -64.5,
}

func TestQGEMMDiff(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	withBothDispatch(t, func(t *testing.T, on bool) {
		for in := 1; in <= 33; in++ {
			for _, out := range []int{1, 2, 3, 4, 5, 7, 8, 12, 15, 16, 17, 20, 33} {
				for _, m := range []int{1, 2, 5} {
					w := randI8(rng, in*out)
					x := randI8(rng, m*in)
					b := make([]int32, out)
					for i := range b {
						b[i] = rng.Int31() - 1<<30
					}
					checkQGEMM(t, on, w, x, b, m, in, out)
				}
			}
		}
	})
}

// checkQGEMM compares QGEMM against QGEMMRef, checks that the kernel
// writes nothing past acc[:m*out], and returns the accumulators.
func checkQGEMM(t *testing.T, on bool, w, x []int8, b []int32, m, in, out int) []int32 {
	t.Helper()
	const guard = 5
	got := make([]int32, m*out+guard)
	for i := range got {
		got[i] = -7
	}
	want := make([]int32, m*out)
	QGEMM(got[:m*out], x, PackQ(w, b, in, out), m)
	QGEMMRef(want, x, w, b, m, in, out)
	for i, v := range want {
		if got[i] != v {
			t.Fatalf("enabled=%v m=%d in=%d out=%d: acc[%d]=%d want %d", on, m, in, out, i, got[i], v)
		}
	}
	for i := m * out; i < len(got); i++ {
		if got[i] != -7 {
			t.Fatalf("enabled=%v m=%d in=%d out=%d: wrote past acc at %d", on, m, in, out, i)
		}
	}
	return want
}

func randI8(rng *rand.Rand, n int) []int8 {
	s := make([]int8, n)
	for i := range s {
		s[i] = int8(rng.Intn(256) - 128)
	}
	return s
}

func TestQuantizeI8Diff(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	xs := append([]float64(nil), quantEdges...)
	for i := 0; i < 200; i++ {
		xs = append(xs, rng.NormFloat64()*100, float64(rng.Intn(400)-200)+0.5)
	}
	withBothDispatch(t, func(t *testing.T, on bool) {
		for _, scale := range []float64{1, 0.5, 1.0 / 127, 3, 1e-3, 0, math.Inf(1), -2} {
			for n := 0; n <= len(xs); n += 1 + n/8 {
				checkQuantize(t, on, xs[:n], scale)
			}
		}
	})
}

func checkQuantize(t *testing.T, on bool, x []float64, scale float64) {
	t.Helper()
	got := make([]int8, len(x)+1)
	got[len(x)] = 99
	want := make([]int8, len(x))
	QuantizeI8(got, x, scale)
	QuantizeI8Ref(want, x, scale)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("enabled=%v scale=%v: x[%d]=%v -> %d, want %d", on, scale, i, x[i], got[i], want[i])
		}
	}
	if got[len(x)] != 99 {
		t.Fatalf("enabled=%v: wrote past dst", on)
	}
}

func TestRequantizeI8Diff(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	acc := []int32{0, 1, -1, 127, -128, 255, -257, 64, -64, math.MaxInt32, math.MinInt32, 3, -3}
	for i := 0; i < 300; i++ {
		acc = append(acc, rng.Int31n(1<<16)-1<<15)
	}
	withBothDispatch(t, func(t *testing.T, on bool) {
		for _, mult := range []float64{0.5, 1.0 / 256, 0.01, 1, 2, -0.5, 0, math.Inf(1), math.NaN(), 1e-300} {
			for _, relu := range []bool{false, true} {
				for n := 0; n <= len(acc); n += 1 + n/8 {
					checkRequantize(t, on, acc[:n], mult, relu)
				}
			}
		}
	})
}

func checkRequantize(t *testing.T, on bool, acc []int32, mult float64, relu bool) {
	t.Helper()
	got := make([]int8, len(acc)+1)
	got[len(acc)] = 99
	want := make([]int8, len(acc))
	RequantizeI8(got, acc, mult, relu)
	RequantizeI8Ref(want, acc, mult, relu)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("enabled=%v mult=%v relu=%v: acc[%d]=%d -> %d, want %d", on, mult, relu, i, acc[i], got[i], want[i])
		}
	}
	if got[len(acc)] != 99 {
		t.Fatalf("enabled=%v: wrote past dst", on)
	}
}

func TestDequantizeI32Diff(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	acc := []int32{0, 1, -1, math.MaxInt32, math.MinInt32, 5, -5}
	for i := 0; i < 100; i++ {
		acc = append(acc, rng.Int31()-1<<30)
	}
	withBothDispatch(t, func(t *testing.T, on bool) {
		for _, s := range [][2]float64{{0.01, 0.02}, {1e-200, 1e-200}, {math.Inf(1), 2}, {math.NaN(), 1}, {-1, 3}, {0, math.Inf(-1)}} {
			for _, relu := range []bool{false, true} {
				for n := 0; n <= len(acc); n++ {
					checkDequantize(t, on, acc[:n], s[0], s[1], relu)
				}
			}
		}
	})
}

func checkDequantize(t *testing.T, on bool, acc []int32, s0, s1 float64, relu bool) {
	t.Helper()
	got := make([]float64, len(acc)+1)
	got[len(acc)] = 99
	want := make([]float64, len(acc))
	DequantizeI32(got, acc, s0, s1, relu)
	DequantizeI32Ref(want, acc, s0, s1, relu)
	if i, ok := bitsEqual(got[:len(acc)], want); !ok {
		t.Fatalf("enabled=%v s=%v,%v relu=%v: acc[%d]=%d -> %x, want %x", on, s0, s1, relu, i, acc[i],
			math.Float64bits(got[i]), math.Float64bits(want[i]))
	}
	if got[len(acc)] != 99 {
		t.Fatalf("enabled=%v: wrote past dst", on)
	}
}

// FuzzQGEMMDiff drives the int8 GEMM and the logit dequantization that
// follows it with arbitrary weights, activations, biases and ragged
// shapes, and requires the dispatched kernels to match QGEMMRef and
// DequantizeI32Ref bit for bit.
func FuzzQGEMMDiff(f *testing.F) {
	f.Add([]byte{1, 2, 3, 0x80, 0x7F, 0xFF, 9, 200}, uint8(24), uint8(16), uint8(3), uint8(0))
	f.Add([]byte{0x80}, uint8(0), uint8(0), uint8(0), uint8(1))
	f.Fuzz(func(t *testing.T, data []byte, inB, outB, mB, scaleB uint8) {
		if len(data) == 0 {
			return
		}
		in, out, m := int(inB)%40+1, int(outB)%24+1, int(mB)%9+1
		at := 0
		next := func() byte { b := data[at%len(data)]; at++; return b }
		w := make([]int8, in*out)
		for i := range w {
			w[i] = int8(next())
		}
		x := make([]int8, m*in)
		for i := range x {
			x[i] = int8(next())
		}
		b := make([]int32, out)
		for i := range b {
			b[i] = int32(uint32(next()) | uint32(next())<<8 | uint32(next())<<16 | uint32(next())<<24)
		}
		s0 := math.Ldexp(1+float64(scaleB&15)/16, int(scaleB>>4)-12)
		relu := scaleB&1 == 1
		withBothDispatch(t, func(t *testing.T, on bool) {
			acc := checkQGEMM(t, on, w, x, b, m, in, out)
			checkDequantize(t, on, acc, s0, 1.0/127, relu)
		})
	})
}

// FuzzQuantDiff drives quantize, requantize and dequantize with
// arbitrary float64 and int32 bit patterns and scales, and requires the
// dispatched kernels to match their *Ref twins bit for bit.
func FuzzQuantDiff(f *testing.F) {
	var seed []byte
	for _, v := range quantEdges {
		seed = binary.LittleEndian.AppendUint64(seed, math.Float64bits(v))
	}
	f.Add(seed, 1.0, 0.5, false)
	f.Add(seed[:8*7], 0.5, 1.0/3, true)
	f.Fuzz(func(t *testing.T, data []byte, scale, mult float64, relu bool) {
		xs := make([]float64, len(data)/8)
		for i := range xs {
			xs[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[8*i:]))
		}
		acc := make([]int32, len(data)/4)
		for i := range acc {
			acc[i] = int32(binary.LittleEndian.Uint32(data[4*i:]))
		}
		withBothDispatch(t, func(t *testing.T, on bool) {
			checkQuantize(t, on, xs, scale)
			checkRequantize(t, on, acc, mult, relu)
			checkDequantize(t, on, acc, scale, mult, relu)
		})
	})
}
