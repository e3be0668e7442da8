package nn

import (
	"math/rand"
	"testing"

	"affectedge/internal/obs"
)

func TestReplicatedFitXOR(t *testing.T) {
	build := func() *Sequential {
		r := rand.New(rand.NewSource(42))
		return NewSequential(NewDense(2, 8, r), NewTanh(), NewDense(8, 2, r))
	}
	rep, err := NewReplicated(build, 4)
	if err != nil {
		t.Fatal(err)
	}
	exs := xorExamples()
	if _, err := rep.Fit(exs, TrainConfig{Epochs: 400, BatchSize: 4, Optimizer: NewAdam(0.03), Seed: 1}); err != nil {
		t.Fatal(err)
	}
	acc, err := rep.Evaluate(exs)
	if err != nil {
		t.Fatal(err)
	}
	if acc < 1 {
		t.Errorf("replicated XOR accuracy %g, want 1.0", acc)
	}
	// Replicas stay in sync with the master after training.
	mp := rep.Master.Params()
	for ri, r := range rep.nets[1:] {
		for pi, p := range r.Params() {
			for i := range p.W {
				if p.W[i] != mp[pi].W[i] {
					t.Fatalf("replica %d param %d diverged from master", ri, pi)
				}
			}
		}
	}
}

func TestReplicatedMismatchedBuilder(t *testing.T) {
	n := 0
	build := func() *Sequential {
		n++
		r := rand.New(rand.NewSource(1))
		if n > 1 {
			return NewSequential(NewDense(2, 3, r))
		}
		return NewSequential(NewDense(2, 4, r))
	}
	if _, err := NewReplicated(build, 2); err == nil {
		t.Error("mismatched replica architecture accepted")
	}
}

func TestReplicatedConfusionMatrix(t *testing.T) {
	build := func() *Sequential {
		r := rand.New(rand.NewSource(42))
		return NewSequential(NewDense(2, 8, r), NewTanh(), NewDense(8, 2, r))
	}
	rep, err := NewReplicated(build, 3)
	if err != nil {
		t.Fatal(err)
	}
	exs := xorExamples()
	if _, err := rep.Fit(exs, TrainConfig{Epochs: 400, BatchSize: 4, Optimizer: NewAdam(0.03), Seed: 1}); err != nil {
		t.Fatal(err)
	}
	cm, err := rep.ConfusionMatrix(exs, 2)
	if err != nil {
		t.Fatal(err)
	}
	var total, diag int
	for i := range cm {
		for j := range cm[i] {
			total += cm[i][j]
			if i == j {
				diag += cm[i][j]
			}
		}
	}
	if total != len(exs) {
		t.Errorf("confusion matrix total %d, want %d", total, len(exs))
	}
	if diag != total {
		t.Errorf("XOR should be perfectly classified, diag %d/%d", diag, total)
	}
}

func TestReplicatedMatchesSingleThreadDirection(t *testing.T) {
	// Replicated training with 1 worker is exactly Fit: every weight, the
	// returned loss and each Verbose value, bit for bit.
	build := func() *Sequential {
		r := rand.New(rand.NewSource(9))
		return NewSequential(NewDense(2, 6, r), NewTanh(), NewDense(6, 2, r))
	}
	rep, err := NewReplicated(build, 1)
	if err != nil {
		t.Fatal(err)
	}
	single := build()
	train := func(fit func([]Example, TrainConfig) (float64, error)) (float64, []float64) {
		var verbose []float64
		loss, err := fit(xorExamples(), TrainConfig{
			Epochs: 50, BatchSize: 4, Optimizer: NewAdam(0.02), Seed: 7,
			Verbose: func(_ int, l, acc float64) { verbose = append(verbose, l, acc) },
		})
		if err != nil {
			t.Fatal(err)
		}
		return loss, verbose
	}
	repLoss, repVerbose := train(rep.Fit)
	singleLoss, singleVerbose := train(single.Fit)
	requireSameParams(t, rep.Master, single, "1-worker replicated vs Fit")
	if !bitsEq(repLoss, singleLoss) {
		t.Fatalf("returned loss: replicated %v vs Fit %v", repLoss, singleLoss)
	}
	if len(repVerbose) != 100 || len(singleVerbose) != 100 {
		t.Fatalf("Verbose values: replicated %d, Fit %d, want 100", len(repVerbose), len(singleVerbose))
	}
	for i := range repVerbose {
		if !bitsEq(repVerbose[i], singleVerbose[i]) {
			t.Fatalf("Verbose value %d (epoch %d): replicated %v vs Fit %v", i, i/2, repVerbose[i], singleVerbose[i])
		}
	}
}

// TestReplicatedFitRecordsEpochs: every training epoch lands in
// nn.train.epoch_us, whichever entry point ran it.
func TestReplicatedFitRecordsEpochs(t *testing.T) {
	reg := obs.NewRegistry()
	WireMetrics(reg.Scope("nn"))
	defer WireMetrics(nil)
	rep, err := NewReplicated(func() *Sequential { return testMLP(30) }, 2)
	if err != nil {
		t.Fatal(err)
	}
	cfg := TrainConfig{Epochs: 3, BatchSize: 8, Optimizer: NewAdam(1e-3), Seed: 31}
	if _, err := rep.Fit(testExamples(20, 12, 4, 32), cfg); err != nil {
		t.Fatal(err)
	}
	h, ok := reg.Snapshot().Histogram("nn.train.epoch_us")
	if !ok || h.Count != 3 {
		t.Fatalf("nn.train.epoch_us count %d (registered %v), want 3", h.Count, ok)
	}
}
