package nn

import (
	"math"
	"math/rand"
	"testing"
)

// The batched kernels promise Float64bits-exact equality with the
// per-example path — not "close", identical. These tests lock that
// contract down at every level: single layers, whole-network forward,
// full training runs (serial and replicated), evaluation, and the
// quantized integer pipeline.

func bitsEq(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// testMLP builds a small deterministic Flatten/Dense/ReLU/Tanh stack; odd
// widths exercise the 4-wide kernel remainder loops.
func testMLP(seed int64) *Sequential {
	rng := rand.New(rand.NewSource(seed))
	return NewSequential(
		NewFlatten(),
		NewDense(12, 9, rng),
		NewReLU(),
		NewDense(9, 7, rng),
		NewTanh(),
		NewDense(7, 4, rng),
	)
}

func testExamples(n, w, classes int, seed int64) []Example {
	rng := rand.New(rand.NewSource(seed))
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

func packBatch(examples []Example) *Tensor {
	w := len(examples[0].X.Data)
	x := NewMatrix(len(examples), w)
	for k, ex := range examples {
		copy(x.Row(k), ex.X.Data)
	}
	return x
}

func TestForwardBatchMatchesScalar(t *testing.T) {
	n := testMLP(1)
	examples := testExamples(13, 12, 4, 2)
	y, err := n.ForwardBatch(packBatch(examples), false)
	if err != nil {
		t.Fatal(err)
	}
	got := y.Clone() // batched output aliases layer scratch
	for k, ex := range examples {
		ref, err := n.Forward(ex.X, false)
		if err != nil {
			t.Fatal(err)
		}
		for o, v := range ref.Data {
			if !bitsEq(got.At(k, o), v) {
				t.Fatalf("example %d logit %d: batched %v vs scalar %v", k, o, got.At(k, o), v)
			}
		}
	}
}

func TestDenseBackwardBatchMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	d := NewDense(11, 6, rng) // odd width: remainder loops
	examples := testExamples(7, 11, 6, 4)
	x := packBatch(examples)
	if _, err := d.ForwardBatch(x, true); err != nil {
		t.Fatal(err)
	}
	g := NewMatrix(7, 6)
	for i := range g.Data {
		g.Data[i] = rng.NormFloat64()
	}
	dxb, err := d.BackwardBatch(g)
	if err != nil {
		t.Fatal(err)
	}
	dxGot := dxb.Clone()
	wGot := append([]float64(nil), d.W.Grad...)
	bGot := append([]float64(nil), d.B.Grad...)
	d.W.ZeroGrad()
	d.B.ZeroGrad()

	for k, ex := range examples {
		if _, err := d.Forward(ex.X, true); err != nil {
			t.Fatal(err)
		}
		dx, err := d.Backward(FromVector(g.Row(k)))
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range dx.Data {
			if !bitsEq(dxGot.At(k, i), v) {
				t.Fatalf("dx[%d][%d]: batched %v vs scalar %v", k, i, dxGot.At(k, i), v)
			}
		}
	}
	for i, v := range d.W.Grad {
		if !bitsEq(wGot[i], v) {
			t.Fatalf("W.Grad[%d]: batched %v vs scalar %v", i, wGot[i], v)
		}
	}
	for i, v := range d.B.Grad {
		if !bitsEq(bGot[i], v) {
			t.Fatalf("B.Grad[%d]: batched %v vs scalar %v", i, bGot[i], v)
		}
	}
}

// mustFit trains and returns the final loss.
func mustFit(t *testing.T, n *Sequential, examples []Example, cfg TrainConfig) float64 {
	t.Helper()
	loss, err := n.Fit(examples, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return loss
}

func requireSameParams(t *testing.T, a, b *Sequential, label string) {
	t.Helper()
	pa, pb := a.Params(), b.Params()
	for i := range pa {
		for j := range pa[i].W {
			if !bitsEq(pa[i].W[j], pb[i].W[j]) {
				t.Fatalf("%s: %s[%d] differs: %v vs %v", label, pa[i].Name, j, pa[i].W[j], pb[i].W[j])
			}
		}
	}
}

func TestFitBatchedMatchesScalar(t *testing.T) {
	examples := testExamples(37, 12, 4, 5) // not a multiple of batch or chunk size
	scalar := testMLP(6)
	batched := testMLP(6)
	lossA := mustFit(t, scalar, examples, TrainConfig{
		Epochs: 3, BatchSize: 8, Optimizer: NewAdam(1e-3), Seed: 9, perExample: true,
	})
	lossB := mustFit(t, batched, examples, TrainConfig{
		Epochs: 3, BatchSize: 8, Optimizer: NewAdam(1e-3), Seed: 9, KernelBatch: 3,
	})
	if !bitsEq(lossA, lossB) {
		t.Fatalf("final loss differs: scalar %v vs batched %v", lossA, lossB)
	}
	requireSameParams(t, scalar, batched, "Fit scalar vs batched")
}

// TestFitKernelBatchInvariance: KernelBatch is an execution knob — any
// chunk size must give bit-identical training.
func TestFitKernelBatchInvariance(t *testing.T) {
	examples := testExamples(29, 12, 4, 7)
	var ref *Sequential
	var refLoss float64
	for _, kb := range []int{0, 1, 5, 32} {
		n := testMLP(8)
		loss := mustFit(t, n, examples, TrainConfig{
			Epochs: 2, BatchSize: 8, Optimizer: NewAdam(1e-3), Seed: 11, KernelBatch: kb,
		})
		if ref == nil {
			ref, refLoss = n, loss
			continue
		}
		if !bitsEq(loss, refLoss) {
			t.Fatalf("KernelBatch=%d loss %v differs from reference %v", kb, loss, refLoss)
		}
		requireSameParams(t, ref, n, "KernelBatch invariance")
	}
}

func TestReplicatedFitBatchedMatchesScalar(t *testing.T) {
	examples := testExamples(41, 12, 4, 13)
	train := func(force bool) *Replicated {
		r, err := NewReplicated(func() *Sequential { return testMLP(14) }, 3)
		if err != nil {
			t.Fatal(err)
		}
		_, err = r.Fit(examples, TrainConfig{
			Epochs: 2, BatchSize: 8, Optimizer: NewAdam(1e-3), Seed: 15,
			KernelBatch: 4, perExample: force,
		})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	requireSameParams(t, train(true).Master, train(false).Master, "Replicated scalar vs batched")
}

func TestEvaluateBatchedMatchesScalar(t *testing.T) {
	n := testMLP(16)
	examples := testExamples(150, 12, 4, 17) // > evalChunk: exercises chunk boundaries
	if !n.BatchCapable() {
		t.Fatal("test MLP should be batch capable")
	}
	idx := make([]int, len(examples))
	for i := range idx {
		idx[i] = i
	}
	preds := make([]int, len(examples))
	if err := n.predictClasses(examples, idx, preds); err != nil {
		t.Fatal(err)
	}
	for i, ex := range examples {
		c, err := n.PredictClass(ex.X)
		if err != nil {
			t.Fatal(err)
		}
		if preds[i] != c {
			t.Fatalf("example %d: batched class %d vs scalar %d", i, preds[i], c)
		}
	}
}

// TestDropoutBatchMatchesScalar: dropout consumes its RNG in row order, so
// the batched pass must reproduce the per-example draw sequence exactly.
func TestDropoutBatchMatchesScalar(t *testing.T) {
	build := func() *Sequential {
		rng := rand.New(rand.NewSource(18))
		return NewSequential(
			NewDense(10, 8, rng),
			NewReLU(),
			NewDropout(0.4, rand.New(rand.NewSource(19))),
			NewDense(8, 3, rng),
		)
	}
	examples := testExamples(9, 10, 3, 20)
	batched := build()
	y, err := batched.ForwardBatch(packBatch(examples), true)
	if err != nil {
		t.Fatal(err)
	}
	got := y.Clone()
	scalar := build()
	for k, ex := range examples {
		ref, err := scalar.Forward(ex.X, true)
		if err != nil {
			t.Fatal(err)
		}
		for o, v := range ref.Data {
			if !bitsEq(got.At(k, o), v) {
				t.Fatalf("example %d logit %d: batched %v vs scalar %v", k, o, got.At(k, o), v)
			}
		}
	}
}

func TestQMLPEvaluateBatchedMatchesInfer(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	n := NewSequential(
		NewFlatten(),
		NewDense(12, 9, rng),
		NewReLU(),
		NewDense(9, 4, rng),
	)
	examples := testExamples(150, 12, 4, 22)
	st, err := CalibrateMLP(n, examples)
	if err != nil {
		t.Fatal(err)
	}
	q, err := BuildQMLP(n, st)
	if err != nil {
		t.Fatal(err)
	}
	got, err := q.Evaluate(examples)
	if err != nil {
		t.Fatal(err)
	}
	var hit int
	for _, ex := range examples {
		logits, err := inferRef(q, flattenExample(ex.X).Data)
		if err != nil {
			t.Fatal(err)
		}
		if Argmax(logits) == ex.Y {
			hit++
		}
	}
	want := float64(hit) / float64(len(examples))
	if !bitsEq(got, want) {
		t.Fatalf("batched quantized accuracy %v vs per-example %v", got, want)
	}
}

// TestLSTMForwardMatchesNaiveStep guards the hoisted whole-sequence GEMM:
// it must be bit-identical to the textbook per-step computation.
func TestLSTMForwardMatchesNaiveStep(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	l := NewLSTM(5, 6, true, rng)
	T, H := 9, l.Hidden
	x := NewMatrix(T, l.In)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	y, err := l.Forward(x, false)
	if err != nil {
		t.Fatal(err)
	}
	h := make([]float64, H)
	c := make([]float64, H)
	for tt := 0; tt < T; tt++ {
		pre := make([]float64, 4*H)
		for g := 0; g < 4*H; g++ {
			s := l.B.W[g]
			for i, v := range x.Row(tt) {
				s += l.Wx.W[g*l.In+i] * v
			}
			for i, v := range h {
				s += l.Wh.W[g*H+i] * v
			}
			pre[g] = s
		}
		hNext := make([]float64, H)
		cNext := make([]float64, H)
		for j := 0; j < H; j++ {
			i := sigmoid(pre[j])
			f := sigmoid(pre[H+j])
			g := math.Tanh(pre[2*H+j])
			o := sigmoid(pre[3*H+j])
			cNext[j] = f*c[j] + i*g
			hNext[j] = o * math.Tanh(cNext[j])
		}
		h, c = hNext, cNext
		for j := 0; j < H; j++ {
			if !bitsEq(y.At(tt, j), h[j]) {
				t.Fatalf("step %d hidden %d: hoisted %v vs naive %v", tt, j, y.At(tt, j), h[j])
			}
		}
	}
}

// TestGRUForwardMatchesNaiveStep is the GRU counterpart.
func TestGRUForwardMatchesNaiveStep(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	g := NewGRU(4, 5, true, rng)
	T, H := 7, g.Hidden
	x := NewMatrix(T, g.In)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	y, err := g.Forward(x, false)
	if err != nil {
		t.Fatal(err)
	}
	h := make([]float64, H)
	for tt := 0; tt < T; tt++ {
		pre := make([]float64, 2*H)
		for k := 0; k < 2*H; k++ {
			s := g.B.W[k]
			for i, v := range x.Row(tt) {
				s += g.Wx.W[k*g.In+i] * v
			}
			for i, v := range h {
				s += g.Wh.W[k*H+i] * v
			}
			pre[k] = s
		}
		hNext := make([]float64, H)
		for j := 0; j < H; j++ {
			r := sigmoid(pre[j])
			z := sigmoid(pre[H+j])
			s := g.CB.W[j]
			for i, v := range x.Row(tt) {
				s += g.Cx.W[j*g.In+i] * v
			}
			for i, v := range h {
				s += g.Ch.W[j*H+i] * r * v
			}
			c := math.Tanh(s)
			hNext[j] = (1-z)*h[j] + z*c
		}
		h = hNext
		for j := 0; j < H; j++ {
			if !bitsEq(y.At(tt, j), h[j]) {
				t.Fatalf("step %d hidden %d: hoisted %v vs naive %v", tt, j, y.At(tt, j), h[j])
			}
		}
	}
}

// TestShapeErrorsReportExpected: layer shape errors must say what was
// expected, not just what arrived.
func TestShapeErrorsReportExpected(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	d := NewDense(4, 2, rng)
	if _, err := d.Forward(NewVector(3), false); err == nil || !containsWant(err.Error()) {
		t.Fatalf("dense forward error %v should mention the expected shape", err)
	}
	l := NewLSTM(3, 2, false, rng)
	if _, err := l.Forward(NewMatrix(4, 5), false); err == nil || !containsWant(err.Error()) {
		t.Fatalf("lstm forward error %v should mention the expected shape", err)
	}
	conv, err := NewConv1D(3, 2, 3, rng)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conv.Forward(NewMatrix(4, 5), false); err == nil || !containsWant(err.Error()) {
		t.Fatalf("conv forward error %v should mention the expected shape", err)
	}
	if _, err := d.ForwardBatch(NewMatrix(2, 7), false); err == nil || !containsWant(err.Error()) {
		t.Fatalf("dense batched forward error %v should mention the expected shape", err)
	}
}

func containsWant(s string) bool {
	for i := 0; i+4 <= len(s); i++ {
		if s[i:i+4] == "want" {
			return true
		}
	}
	return false
}
