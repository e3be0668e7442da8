package nn

import (
	"fmt"
	"math/rand"
	"testing"

	"affectedge/internal/obs"
)

// Micro-benchmarks for the batched GEMM kernels against the per-example
// baselines they replace. All report allocations: the batched training
// step must be allocation-free in steady state.

// The benchmark shape is the study's paper-scale MLP: 70 frames of 40-dim
// features flattened to 2800 inputs, hidden layers 180/60/20, 7 emotion
// classes (models.go).
const (
	benchBatch = 64
	benchIn    = 2800
	benchHid   = 180
	benchOut   = 7
)

func benchExamples(n, w, classes int) []Example {
	rng := rand.New(rand.NewSource(100))
	ex := make([]Example, n)
	for i := range ex {
		x := NewVector(w)
		for j := range x.Data {
			x.Data[j] = rng.NormFloat64()
		}
		ex[i] = Example{X: x, Y: rng.Intn(classes)}
	}
	return ex
}

func benchMLP() *Sequential {
	rng := rand.New(rand.NewSource(101))
	return NewSequential(
		NewDense(benchIn, benchHid, rng),
		NewReLU(),
		NewDense(benchHid, 60, rng),
		NewReLU(),
		NewDense(60, 20, rng),
		NewReLU(),
		NewDense(20, benchOut, rng),
	)
}

// BenchmarkDenseForwardScalar is the per-example baseline: one Forward
// call per example, allocating the output each time.
func BenchmarkDenseForwardScalar(b *testing.B) {
	rng := rand.New(rand.NewSource(102))
	d := NewDense(benchIn, benchHid, rng)
	examples := benchExamples(benchBatch, benchIn, benchOut)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, ex := range examples {
			if _, err := d.Forward(ex.X, false); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkDenseForwardBatched runs the same work as one GEMM into
// reused scratch.
func BenchmarkDenseForwardBatched(b *testing.B) {
	rng := rand.New(rand.NewSource(102))
	d := NewDense(benchIn, benchHid, rng)
	examples := benchExamples(benchBatch, benchIn, benchOut)
	x := NewMatrix(benchBatch, benchIn)
	for k, ex := range examples {
		copy(x.Row(k), ex.X.Data)
	}
	if _, err := d.ForwardBatch(x, false); err != nil { // warm scratch
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := d.ForwardBatch(x, false); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTrainStepScalar is one full forward/loss/backward pass over a
// mini-batch through the per-example path.
func BenchmarkTrainStepScalar(b *testing.B) {
	n := benchMLP()
	examples := benchExamples(benchBatch, benchIn, benchOut)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, ex := range examples {
			y, err := n.Forward(ex.X, true)
			if err != nil {
				b.Fatal(err)
			}
			_, grad, err := CrossEntropy(y.Data, ex.Y)
			if err != nil {
				b.Fatal(err)
			}
			if err := n.backward(FromVector(grad)); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkTrainStepBatched is the same mini-batch through the batched
// kernels; steady state must report 0 allocs/op.
func BenchmarkTrainStepBatched(b *testing.B) {
	n := benchMLP()
	examples := benchExamples(benchBatch, benchIn, benchOut)
	idx := make([]int, len(examples))
	for i := range idx {
		idx[i] = i
	}
	bw := batchWorker{net: n}
	var loss float64
	var hit int
	if err := bw.step(examples, idx, &loss, &hit); err != nil { // warm scratch
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := bw.step(examples, idx, &loss, &hit); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTrainStepBatchedMetrics is BenchmarkTrainStepBatched with the
// observability layer wired to a live registry; the delta between the two
// is the enabled cost of instrumentation on the training hot path (the
// unwired variant measures the Nop path). Must stay within 3% of the
// unwired number and report 0 allocs/op.
func BenchmarkTrainStepBatchedMetrics(b *testing.B) {
	reg := obs.NewRegistry()
	WireMetrics(reg.Scope("nn"))
	defer WireMetrics(obs.Nop)
	n := benchMLP()
	examples := benchExamples(benchBatch, benchIn, benchOut)
	idx := make([]int, len(examples))
	for i := range idx {
		idx[i] = i
	}
	bw := batchWorker{net: n}
	var loss float64
	var hit int
	if err := bw.step(examples, idx, &loss, &hit); err != nil { // warm scratch
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := bw.step(examples, idx, &loss, &hit); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMLPFitScalar / BenchmarkMLPFitBatched time one epoch of Fit
// end to end (shuffle, loss, clip, Adam) on the two paths.
func benchmarkFit(b *testing.B, force bool) {
	examples := benchExamples(2*benchBatch, benchIn, benchOut)
	n := benchMLP()
	opt := NewAdam(1e-3)
	cfg := TrainConfig{Epochs: 1, BatchSize: benchBatch, Optimizer: opt, Seed: 1, perExample: force}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := n.Fit(examples, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMLPFitScalar(b *testing.B)  { benchmarkFit(b, true) }
func BenchmarkMLPFitBatched(b *testing.B) { benchmarkFit(b, false) }

// BenchmarkLSTMForwardStudyShape covers the hoisted whole-sequence input
// GEMM (70 frames of 40-dim features, the study's feature shape).
func BenchmarkLSTMForwardStudyShape(b *testing.B) {
	rng := rand.New(rand.NewSource(103))
	l := NewLSTM(40, 48, false, rng)
	x := NewMatrix(70, 40)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	if _, err := l.Forward(x, false); err != nil { // warm scratch
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := l.Forward(x, false); err != nil {
			b.Fatal(err)
		}
	}
}

func benchQMLP(b *testing.B) (*QMLP, []Example) {
	b.Helper()
	rng := rand.New(rand.NewSource(104))
	n := NewSequential(
		NewDense(benchIn, benchHid, rng),
		NewReLU(),
		NewDense(benchHid, benchOut, rng),
	)
	examples := benchExamples(benchBatch, benchIn, benchOut)
	st, err := CalibrateMLP(n, examples[:8])
	if err != nil {
		b.Fatal(err)
	}
	q, err := BuildQMLP(n, st)
	if err != nil {
		b.Fatal(err)
	}
	return q, examples
}

// BenchmarkQMLPInferScalar is per-example int8 inference.
func BenchmarkQMLPInferScalar(b *testing.B) {
	q, examples := benchQMLP(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, ex := range examples {
			if _, err := q.Infer(flattenExample(ex.X)); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkQMLPEvaluateBatched runs the same examples through the
// one-GEMM-per-layer evaluation path.
func BenchmarkQMLPEvaluateBatched(b *testing.B) {
	q, examples := benchQMLP(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := q.Evaluate(examples); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkQMLPInferBatch times batched int8 inference at the served
// classifier's shape (Dense 24→16 + ReLU + Dense 16→8) and reports ns per
// row. Steady state must not allocate.
func BenchmarkQMLPInferBatch(b *testing.B) {
	const in, hid, classes = 24, 16, 8
	rng := rand.New(rand.NewSource(105))
	net := NewSequential(NewDense(in, hid, rng), NewReLU(), NewDense(hid, classes, rng))
	calib := benchExamples(16, in, classes)
	st, err := CalibrateMLP(net, calib)
	if err != nil {
		b.Fatal(err)
	}
	q, err := BuildQMLP(net, st)
	if err != nil {
		b.Fatal(err)
	}
	for _, m := range []int{1, 64, 256} {
		b.Run(fmt.Sprintf("m=%d", m), func(b *testing.B) {
			x := make([]float64, m*in)
			for i := range x {
				x[i] = rng.NormFloat64()
			}
			out := make([]float64, m*classes)
			var s QScratch
			if err := q.InferBatch(&s, x, m, out); err != nil { // warm scratch
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := q.InferBatch(&s, x, m, out); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*m), "ns/row")
		})
	}
}
