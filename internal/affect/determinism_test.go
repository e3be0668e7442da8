package affect

import (
	"math"
	"strings"
	"testing"

	"affectedge/internal/affectdata"
	"affectedge/internal/nn"
	"affectedge/internal/parallel"
)

// The repo-wide determinism contract: for a fixed seed, every parallel
// pipeline stage — corpus synthesis, featurization, and the full
// corpus×model study — must produce results bit-identical to its serial
// execution. These tests run each stage with the pool pinned to 1 worker
// and to 8 workers and require exact equality.

// withWorkers runs fn at the given pool size, restoring the previous
// setting afterwards.
func withWorkers(workers int, fn func()) {
	defer parallel.SetWorkers(parallel.SetWorkers(workers))
	fn()
}

func datasetAt(t *testing.T, workers int) ([]nn.Example, map[int]int) {
	t.Helper()
	var ex []nn.Example
	var classOf map[int]int
	withWorkers(workers, func() {
		clips, err := affectdata.EMOVO().Generate(7, 28)
		if err != nil {
			t.Fatal(err)
		}
		ex, classOf, err = Dataset(clips, DefaultFeatureConfig(8000))
		if err != nil {
			t.Fatal(err)
		}
	})
	return ex, classOf
}

// TestDatasetParallelMatchesSerial covers Generate + Features + class
// assignment end to end.
func TestDatasetParallelMatchesSerial(t *testing.T) {
	serialEx, serialClasses := datasetAt(t, 1)
	wideEx, wideClasses := datasetAt(t, 8)
	if len(serialEx) != len(wideEx) {
		t.Fatalf("example counts differ: %d vs %d", len(serialEx), len(wideEx))
	}
	if len(serialClasses) != len(wideClasses) {
		t.Fatalf("class maps differ: %v vs %v", serialClasses, wideClasses)
	}
	for lbl, cls := range serialClasses {
		if wideClasses[lbl] != cls {
			t.Fatalf("label %d maps to class %d serial, %d parallel", lbl, cls, wideClasses[lbl])
		}
	}
	for i := range serialEx {
		if serialEx[i].Y != wideEx[i].Y {
			t.Fatalf("example %d label differs: %d vs %d", i, serialEx[i].Y, wideEx[i].Y)
		}
		a, b := serialEx[i].X, wideEx[i].X
		if a.Rows != b.Rows || a.Cols != b.Cols {
			t.Fatalf("example %d shape differs: %dx%d vs %dx%d", i, a.Rows, a.Cols, b.Rows, b.Cols)
		}
		for j := range a.Data {
			if math.Float64bits(a.Data[j]) != math.Float64bits(b.Data[j]) {
				t.Fatalf("example %d feature %d differs: %g vs %g", i, j, a.Data[j], b.Data[j])
			}
		}
	}
}

// studyAt runs a miniature full study (all corpora, all model families) at
// the given pool size. Workers=1 pins the replica count too, so the
// training arithmetic is identical across pool sizes.
func studyAt(t *testing.T, workers int) (*StudyReport, string) {
	t.Helper()
	var rep *StudyReport
	var verbose strings.Builder
	withWorkers(workers, func() {
		cfg := StudyConfig{
			ClipsPerCorpus: 64,
			TestFraction:   0.25,
			Epochs:         2,
			BatchSize:      8,
			LearningRate:   2e-3,
			Workers:        1,
			Scale:          FastScale,
			Seed:           3,
			Feature:        FeatureConfig{SampleRate: 8000, NumFrames: 16, NumMFCC: 8, HistBins: 6},
			Verbose:        &verbose,
		}
		var err error
		rep, err = RunStudy(cfg)
		if err != nil {
			t.Fatal(err)
		}
	})
	return rep, verbose.String()
}

// requireEqualReports compares two study reports field by field, demanding
// bit-identical floats and identical confusion tables.
func requireEqualReports(t *testing.T, serial, other *StudyReport, label string) {
	t.Helper()
	if len(serial.Results) != len(other.Results) {
		t.Fatalf("%s: result counts differ: %d vs %d", label, len(serial.Results), len(other.Results))
	}
	for i := range serial.Results {
		a, b := serial.Results[i], other.Results[i]
		if a.Corpus != b.Corpus || a.Kind != b.Kind {
			t.Fatalf("%s: result %d identity differs: %s/%s vs %s/%s", label, i, a.Corpus, a.Kind, b.Corpus, b.Kind)
		}
		if a.Params != b.Params || a.FloatBytes != b.FloatBytes || a.QuantBytes != b.QuantBytes {
			t.Errorf("%s: %s/%s size fields differ", label, a.Corpus, a.Kind)
		}
		if math.Float64bits(a.Accuracy) != math.Float64bits(b.Accuracy) {
			t.Errorf("%s: %s/%s accuracy differs: %v vs %v", label, a.Corpus, a.Kind, a.Accuracy, b.Accuracy)
		}
		if math.Float64bits(a.QuantAccuracy) != math.Float64bits(b.QuantAccuracy) {
			t.Errorf("%s: %s/%s quantized accuracy differs: %v vs %v", label, a.Corpus, a.Kind, a.QuantAccuracy, b.QuantAccuracy)
		}
		if math.Float64bits(a.MacroF1) != math.Float64bits(b.MacroF1) {
			t.Errorf("%s: %s/%s macro F1 differs: %v vs %v", label, a.Corpus, a.Kind, a.MacroF1, b.MacroF1)
		}
		for r := range a.Confusion {
			for c := range a.Confusion[r] {
				if a.Confusion[r][c] != b.Confusion[r][c] {
					t.Errorf("%s: %s/%s confusion[%d][%d] differs: %d vs %d",
						label, a.Corpus, a.Kind, r, c, a.Confusion[r][c], b.Confusion[r][c])
				}
			}
		}
	}
}

// TestRunStudyParallelMatchesSerial locks down the whole grid: datasets,
// training, evaluation, confusion matrices, quantization and the Verbose
// progress lines must agree exactly between a serial and a wide pool.
func TestRunStudyParallelMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("miniature study training skipped in -short mode")
	}
	serial, serialLog := studyAt(t, 1)
	wide, wideLog := studyAt(t, 8)
	requireEqualReports(t, serial, wide, "workers 1 vs 8")
	if serialLog != wideLog {
		t.Errorf("Verbose output differs between workers 1 and 8:\n--- 1 ---\n%s--- 8 ---\n%s", serialLog, wideLog)
	}
	if want := len(serial.Results); strings.Count(serialLog, "\n") != want {
		t.Errorf("Verbose wrote %d lines, want one per cell (%d)", strings.Count(serialLog, "\n"), want)
	}
}
