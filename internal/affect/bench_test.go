package affect

import (
	"testing"

	"affectedge/internal/affectdata"
	"affectedge/internal/nn"
	"affectedge/internal/parallel"
)

// benchClips synthesizes a small EMOVO batch once for featurization
// benchmarks.
func benchClips(b *testing.B, n int) []affectdata.Clip {
	b.Helper()
	clips, err := affectdata.EMOVO().Generate(1, n)
	if err != nil {
		b.Fatal(err)
	}
	return clips
}

// BenchmarkFeatures measures single-clip feature extraction — the per-clip
// unit of work the parallel dataset pipeline fans out.
func BenchmarkFeatures(b *testing.B) {
	clips := benchClips(b, 1)
	cfg := DefaultFeatureConfig(8000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Features(clips[0].Wave, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDatasetParallel compares clip featurization with the worker
// pool pinned to one worker against the GOMAXPROCS default — the headline
// serial-vs-parallel speedup of the training pipeline. On an N-core
// machine the parallel case should approach N× (featurization is
// embarrassingly parallel and, with pooled DSP scratch, nearly
// allocation-free).
func BenchmarkDatasetParallel(b *testing.B) {
	clips := benchClips(b, 32)
	cfg := DefaultFeatureConfig(8000)
	run := func(workers int) func(*testing.B) {
		return func(b *testing.B) {
			defer parallel.SetWorkers(parallel.SetWorkers(workers))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := Dataset(clips, cfg); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	b.Run("serial", run(1))
	b.Run("parallel", run(0)) // 0 = GOMAXPROCS workers
}

// BenchmarkTrainMLP measures one training epoch of the study's MLP on real
// featurized EMOVO examples through the batched kernels (nn's
// BenchmarkMLPFitScalar/Batched keep the per-example comparison).
func BenchmarkTrainMLP(b *testing.B) {
	clips := benchClips(b, 48)
	cfg := DefaultFeatureConfig(8000)
	examples, _, err := Dataset(clips, cfg)
	if err != nil {
		b.Fatal(err)
	}
	classes := map[int]bool{}
	for _, ex := range examples {
		classes[ex.Y] = true
	}
	net, err := Build(MLP, cfg.NumFrames, cfg.Dim(), len(classes), FastScale, 1)
	if err != nil {
		b.Fatal(err)
	}
	tc := nn.TrainConfig{Epochs: 1, BatchSize: 16, Optimizer: nn.NewAdam(2e-3), Seed: 1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := net.Fit(examples, tc); err != nil {
			b.Fatal(err)
		}
	}
}
