package nn

import (
	"math"
	"math/rand"
	"testing"

	"affectedge/internal/simd"
)

// trainedMLP returns a float MLP trained on a small separable task plus
// its train/test examples.
func trainedMLP(t *testing.T) (*Sequential, []Example, []Example) {
	t.Helper()
	rng := rand.New(rand.NewSource(4))
	var exs []Example
	for i := 0; i < 120; i++ {
		x := NewVector(6)
		y := i % 3
		for j := range x.Data {
			x.Data[j] = rng.NormFloat64() * 0.4
		}
		x.Data[y] += 2.2 // class-indicative bump
		exs = append(exs, Example{X: x, Y: y})
	}
	r := rand.New(rand.NewSource(5))
	net := NewSequential(
		NewFlatten(),
		NewDense(6, 16, r),
		NewReLU(),
		NewDense(16, 3, r),
	)
	if _, err := net.Fit(exs[:90], TrainConfig{Epochs: 40, BatchSize: 8, Optimizer: NewAdam(0.01), Seed: 1}); err != nil {
		t.Fatal(err)
	}
	return net, exs[:90], exs[90:]
}

func TestQMLPMatchesFloatAccuracy(t *testing.T) {
	net, train, test := trainedMLP(t)
	floatAcc, err := net.Evaluate(test)
	if err != nil {
		t.Fatal(err)
	}
	st, err := CalibrateMLP(net, train)
	if err != nil {
		t.Fatal(err)
	}
	q, err := BuildQMLP(net, st)
	if err != nil {
		t.Fatal(err)
	}
	intAcc, err := q.Evaluate(test)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("float acc %.3f, int8 acc %.3f", floatAcc, intAcc)
	if floatAcc-intAcc > 0.05 {
		t.Errorf("int8 accuracy %.3f more than 5 pp below float %.3f", intAcc, floatAcc)
	}
	if floatAcc < 0.9 {
		t.Errorf("float model underfit: %.3f", floatAcc)
	}
}

func TestQMLPLogitsCloseToFloat(t *testing.T) {
	net, train, test := trainedMLP(t)
	st, err := CalibrateMLP(net, train)
	if err != nil {
		t.Fatal(err)
	}
	q, err := BuildQMLP(net, st)
	if err != nil {
		t.Fatal(err)
	}
	for _, ex := range test[:5] {
		want, err := net.Forward(ex.X, false)
		if err != nil {
			t.Fatal(err)
		}
		got, err := q.Infer(ex.X)
		if err != nil {
			t.Fatal(err)
		}
		scale := 1 + maxAbs(want.Data)
		for i := range got {
			if math.Abs(got[i]-want.Data[i])/scale > 0.12 {
				t.Errorf("logit %d: int8 %.3f vs float %.3f", i, got[i], want.Data[i])
			}
		}
	}
}

func TestQMLPSizeAdvantage(t *testing.T) {
	net, train, _ := trainedMLP(t)
	st, err := CalibrateMLP(net, train)
	if err != nil {
		t.Fatal(err)
	}
	q, err := BuildQMLP(net, st)
	if err != nil {
		t.Fatal(err)
	}
	// On this tiny net the int32 biases and per-layer scales eat into the
	// 4x asymptotic ratio; 2x is the floor.
	floatBytes := Float32SizeBytes(net)
	if ratio := float64(floatBytes) / float64(q.SizeBytes()); ratio < 2.0 {
		t.Errorf("int8 pipeline only %.1fx smaller", ratio)
	}
	// At a realistic width the ratio approaches 4x.
	rng := rand.New(rand.NewSource(2))
	big := NewSequential(NewDense(512, 256, rng), NewReLU(), NewDense(256, 8, rng))
	x := NewVector(512)
	stBig, err := CalibrateMLP(big, []Example{{X: x, Y: 0}})
	if err != nil {
		t.Fatal(err)
	}
	qBig, err := BuildQMLP(big, stBig)
	if err != nil {
		t.Fatal(err)
	}
	if ratio := float64(Float32SizeBytes(big)) / float64(qBig.SizeBytes()); ratio < 3.8 {
		t.Errorf("large-net int8 ratio %.2f, want ~4", ratio)
	}
}

func TestQMLPRejectsUnsupportedLayers(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	lstmNet := NewSequential(NewLSTM(4, 4, false, rng), NewDense(4, 2, rng))
	x := NewMatrix(3, 4)
	if _, err := CalibrateMLP(lstmNet, []Example{{X: x, Y: 0}}); err == nil {
		t.Error("LSTM network accepted for int8 MLP inference")
	}
	dense := NewSequential(NewDense(4, 2, rng))
	if _, err := CalibrateMLP(dense, nil); err == nil {
		t.Error("no calibration examples accepted")
	}
	if _, err := BuildQMLP(dense, nil); err == nil {
		t.Error("missing stats accepted")
	}
}

func TestQMLPInputValidation(t *testing.T) {
	net, train, _ := trainedMLP(t)
	st, err := CalibrateMLP(net, train)
	if err != nil {
		t.Fatal(err)
	}
	q, err := BuildQMLP(net, st)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := q.Infer(NewVector(5)); err == nil {
		t.Error("wrong input size accepted")
	}
	if _, err := q.Evaluate(nil); err == nil {
		t.Error("empty evaluation accepted")
	}
}

// TestQMLPInferBatchMatchesInfer pins InferBatch (and Infer, its m=1 form)
// to the scalar per-row oracle inferRef, bit for bit, with the vector
// kernels on and off, over ragged fan-in and fan-out on both sides of the
// kernels' pair and four-output groupings and over batch sizes up to the
// served 245. A few inputs are NaN, ±Inf, or exact rounding ties.
func TestQMLPInferBatchMatchesInfer(t *testing.T) {
	prev := simd.Enabled()
	defer simd.SetEnabled(prev)
	rng := rand.New(rand.NewSource(31))
	for _, in := range []int{1, 2, 3, 23, 24, 25, 33} {
		for oi, out := range []int{1, 3, 4, 5, 8, 16, 17} {
			classes := []int{1, 3, 5, 8, 2, 7, 9}[oi]
			net := NewSequential(NewDense(in, out, rng), NewReLU(), NewDense(out, classes, rng))
			st, err := CalibrateMLP(net, testExamples(8, in, 1, int64(in*out)))
			if err != nil {
				t.Fatal(err)
			}
			q, err := BuildQMLP(net, st)
			if err != nil {
				t.Fatal(err)
			}
			x := make([]float64, 245*in)
			for i := range x {
				x[i] = rng.NormFloat64() * 1.5
			}
			for i, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1),
				2.5 * q.InputScale, -2.5 * q.InputScale, 127.5 * q.InputScale, -128.5 * q.InputScale} {
				x[(i*37)%len(x)] = v
			}
			want := make([][]float64, 245)
			for k := range want {
				if want[k], err = inferRef(q, x[k*in:(k+1)*in]); err != nil {
					t.Fatal(err)
				}
			}
			for _, on := range []bool{true, false} {
				simd.SetEnabled(on)
				for _, m := range []int{1, 7, 64, 245} {
					got := make([]float64, m*classes)
					var s QScratch
					if err := q.InferBatch(&s, x[:m*in], m, got); err != nil {
						t.Fatal(err)
					}
					for k := 0; k < m; k++ {
						for c, w := range want[k] {
							if math.Float64bits(got[k*classes+c]) != math.Float64bits(w) {
								t.Fatalf("simd=%v in=%d out=%d m=%d row %d logit %d: batch %v != ref %v",
									on, in, out, m, k, c, got[k*classes+c], w)
							}
						}
					}
				}
				one, err := q.Infer(&Tensor{Data: x[:in], Cols: in})
				if err != nil {
					t.Fatal(err)
				}
				for c, w := range want[0] {
					if math.Float64bits(one[c]) != math.Float64bits(w) {
						t.Fatalf("simd=%v in=%d out=%d: Infer logit %d %v != ref %v", on, in, out, c, one[c], w)
					}
				}
			}
		}
	}
}

func TestQMLPInferBatchScratchReuse(t *testing.T) {
	net, train, test := trainedMLP(t)
	st, err := CalibrateMLP(net, train)
	if err != nil {
		t.Fatal(err)
	}
	q, err := BuildQMLP(net, st)
	if err != nil {
		t.Fatal(err)
	}
	in := q.Layers[0].In
	classes := q.Layers[len(q.Layers)-1].Out
	m := 8
	x := make([]float64, m*in)
	for k := 0; k < m; k++ {
		copy(x[k*in:(k+1)*in], test[k%len(test)].X.Data)
	}
	out := make([]float64, m*classes)
	var s QScratch
	if err := q.InferBatch(&s, x, m, out); err != nil { // warm the buffers
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if err := q.InferBatch(&s, x, m, out); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("steady-state InferBatch allocates %.1f objects/run, want 0", allocs)
	}
	// nil scratch allocates internally but must still be correct.
	out2 := make([]float64, m*classes)
	if err := q.InferBatch(nil, x, m, out2); err != nil {
		t.Fatal(err)
	}
	for i := range out {
		if math.Float64bits(out[i]) != math.Float64bits(out2[i]) {
			t.Fatalf("nil-scratch logit %d differs: %v vs %v", i, out2[i], out[i])
		}
	}
}

func TestQMLPInferBatchValidation(t *testing.T) {
	net, train, _ := trainedMLP(t)
	st, err := CalibrateMLP(net, train)
	if err != nil {
		t.Fatal(err)
	}
	q, err := BuildQMLP(net, st)
	if err != nil {
		t.Fatal(err)
	}
	in := q.Layers[0].In
	classes := q.Layers[len(q.Layers)-1].Out
	var s QScratch
	if err := q.InferBatch(&s, make([]float64, in), 0, make([]float64, classes)); err == nil {
		t.Error("m=0 accepted")
	}
	if err := q.InferBatch(&s, make([]float64, in+1), 1, make([]float64, classes)); err == nil {
		t.Error("wrong input length accepted")
	}
	if err := q.InferBatch(&s, make([]float64, in), 1, make([]float64, classes-1)); err == nil {
		t.Error("short output accepted")
	}
	empty := &QMLP{}
	if err := empty.InferBatch(&s, nil, 1, nil); err == nil {
		t.Error("empty network accepted")
	}
}

func BenchmarkQMLPInfer(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	net := NewSequential(
		NewDense(128, 64, rng),
		NewReLU(),
		NewDense(64, 8, rng),
	)
	x := NewVector(128)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	st, err := CalibrateMLP(net, []Example{{X: x, Y: 0}})
	if err != nil {
		b.Fatal(err)
	}
	q, err := BuildQMLP(net, st)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := q.Infer(x); err != nil {
			b.Fatal(err)
		}
	}
}
