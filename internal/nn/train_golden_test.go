package nn

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// Golden hashes of whole training runs, recorded before Sequential.Fit and
// Replicated.Fit shared one loop. They pin every weight bit, the returned
// loss and each per-epoch Verbose value of a serial run, and the weights,
// accuracy and confusion matrix of a 3-replica run, on a batch-capable MLP
// (GEMM path) and on a GRU (per-example path).
//
// Go's amd64 math.Exp takes an FMA path when the CPU has one, which moves
// last bits, so each run has two recorded digests: with FMA, and without
// (GODEBUG=cpu.fma=off). Other architectures are not recorded.

func goldenSeqGRU(seed int64) *Sequential {
	rng := rand.New(rand.NewSource(seed))
	return NewSequential(NewGRU(3, 5, false, rng), NewDense(5, 4, rng))
}

func goldenSeqExamples(n int, seed int64) []Example {
	rng := rand.New(rand.NewSource(seed))
	ex := make([]Example, n)
	for i := range ex {
		x := NewMatrix(4, 3)
		for j := range x.Data {
			x.Data[j] = rng.NormFloat64()
		}
		ex[i] = Example{X: x, Y: rng.Intn(4)}
	}
	return ex
}

func hashF64(h hash.Hash, vs ...float64) {
	var b [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
}

func hashWeights(h hash.Hash, n *Sequential) {
	for _, p := range n.Params() {
		hashF64(h, p.W...)
	}
}

// fitDigest trains n serially and hashes weights, the returned loss and
// every Verbose (loss, acc) pair.
func fitDigest(t *testing.T, n *Sequential, examples []Example, epochs int) string {
	t.Helper()
	h := sha256.New()
	var verbose []float64
	loss, err := n.Fit(examples, TrainConfig{
		Epochs: epochs, BatchSize: 8, Optimizer: NewAdam(0.01), Seed: 3,
		Verbose: func(_ int, l, acc float64) { verbose = append(verbose, l, acc) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(verbose) != 2*epochs {
		t.Fatalf("%d Verbose values, want %d", len(verbose), 2*epochs)
	}
	hashWeights(h, n)
	hashF64(h, loss)
	hashF64(h, verbose...)
	acc, err := n.Evaluate(examples)
	if err != nil {
		t.Fatal(err)
	}
	hashF64(h, acc)
	return hex.EncodeToString(h.Sum(nil))
}

// replicatedDigest trains a 3-replica set and hashes the master weights,
// Evaluate's accuracy and the confusion matrix. The returned loss is left
// out: at more than one replica its last bits depend on how per-worker
// sums are grouped.
func replicatedDigest(t *testing.T, build func() *Sequential, examples []Example) string {
	t.Helper()
	r, err := NewReplicated(build, 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Fit(examples, TrainConfig{Epochs: 4, BatchSize: 8, Optimizer: NewAdam(0.01), Seed: 5}); err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	hashWeights(h, r.Master)
	acc, err := r.Evaluate(examples)
	if err != nil {
		t.Fatal(err)
	}
	hashF64(h, acc)
	cm, err := r.ConfusionMatrix(examples, 4)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprint(h, cm)
	return hex.EncodeToString(h.Sum(nil))
}

func TestGoldenTraining(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("training digests are recorded for amd64 only")
	}
	mlpData := testExamples(45, 12, 4, 21)
	gruData := goldenSeqExamples(29, 22)
	for _, tc := range []struct {
		name string
		got  func() string
		want [2]string // with FMA, without
	}{
		{"fit/mlp", func() string { return fitDigest(t, testMLP(23), mlpData, 6) }, [2]string{
			"64cdbfc6c987c53773e253859abf83b31897e8c1c77209c91eb4ba443c3cdfae",
			"ef1a9c5413e00aec88cd073e6574be6b3b379a46c0dd29af0c4d3756d0cd163f"}},
		{"fit/gru", func() string { return fitDigest(t, goldenSeqGRU(24), gruData, 4) }, [2]string{
			"748b35b7fbd51dba9acd7f041bf9aa5a497ec8cd9f3120187aefb10b8f89b6b2",
			"52e0b8714c324ccf7058d8b648549143de765ebdef87a1c37dc8b222782800d6"}},
		{"replicated/mlp", func() string {
			return replicatedDigest(t, func() *Sequential { return testMLP(25) }, mlpData)
		}, [2]string{
			"37cc21800debf4159bb7ab2fa714eea516f9b3399ee3c3d5bf4dff7967263791",
			"21be4d070f8dde8f782fad61615c53cbb349b8da2b71751e78be01222e395dad"}},
		{"replicated/gru", func() string {
			return replicatedDigest(t, func() *Sequential { return goldenSeqGRU(26) }, gruData)
		}, [2]string{
			"830c2dbdc10503d50f0e583637429881b920adac8925a191f7324565f2162ea2",
			"74b71ef73f8a37c9b0f019f6ae65ce13cd1bc1d2492850398ff8d2b0c94e63c6"}},
	} {
		if got := tc.got(); got != tc.want[0] && got != tc.want[1] {
			t.Errorf("%s: digest %s, want %s (FMA) or %s", tc.name, got, tc.want[0], tc.want[1])
		}
	}
}
