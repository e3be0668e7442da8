package affect

import (
	"math"
	"math/rand"
	"testing"

	"affectedge/internal/affectdata"
	"affectedge/internal/emotion"
	"affectedge/internal/nn"
	"affectedge/internal/simd"
)

func TestFeatureShape(t *testing.T) {
	spec := affectdata.EMOVO()
	clips, err := spec.Generate(1, 4)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultFeatureConfig(spec.SampleRate)
	for _, c := range clips {
		x, err := Features(c.Wave, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if x.Rows != cfg.NumFrames || x.Cols != cfg.Dim() {
			t.Fatalf("feature shape %s, want [%dx%d]", x.ShapeString(), cfg.NumFrames, cfg.Dim())
		}
		for _, v := range x.Data {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatal("features contain NaN/Inf")
			}
		}
	}

	// Noise clips shorter than one frame, one sample past a frame, and off
	// the hop grid keep the fixed shape, with and without CMVN, and are
	// bit-identical at both SIMD dispatch settings.
	defer simd.SetEnabled(simd.Enabled())
	cmvn := DefaultFeatureConfig(16000)
	cmvn.CMVN = true
	rng := rand.New(rand.NewSource(42))
	for _, c := range []FeatureConfig{DefaultFeatureConfig(16000), cmvn} {
		for _, n := range []int{50, 401, 16321} {
			wave := make([]float64, n)
			for i := range wave {
				wave[i] = rng.NormFloat64()
			}
			simd.SetEnabled(false)
			want, err := Features(wave, c)
			if err != nil {
				t.Fatal(err)
			}
			simd.SetEnabled(simd.Available())
			got, err := Features(wave, c)
			if err != nil {
				t.Fatal(err)
			}
			if got.Rows != c.NumFrames || got.Cols != c.Dim() {
				t.Fatalf("cmvn=%v n=%d: feature shape %s, want [%dx%d]", c.CMVN, n, got.ShapeString(), c.NumFrames, c.Dim())
			}
			for i, v := range got.Data {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Fatalf("cmvn=%v n=%d: features contain NaN/Inf", c.CMVN, n)
				}
				if math.Float64bits(v) != math.Float64bits(want.Data[i]) {
					t.Fatalf("cmvn=%v n=%d: element %d is %v with SIMD, %v without", c.CMVN, n, i, v, want.Data[i])
				}
			}
		}
	}
}

func TestFeatureDim(t *testing.T) {
	cfg := DefaultFeatureConfig(8000)
	// 13 MFCC + 13 deltas + zcr + rms + pitch + centroid + 10 hist = 40.
	if cfg.Dim() != 40 {
		t.Errorf("Dim = %d, want 40", cfg.Dim())
	}
}

func TestFeaturesErrors(t *testing.T) {
	cfg := DefaultFeatureConfig(8000)
	if _, err := Features(nil, cfg); err == nil {
		t.Error("empty waveform accepted")
	}
	bad := cfg
	bad.NumFrames = 0
	if _, err := Features(make([]float64, 8000), bad); err == nil {
		t.Error("zero NumFrames accepted")
	}
}

func TestResampleRows(t *testing.T) {
	rows := [][]float64{{0}, {1}, {2}, {3}}
	out := resampleRows(rows, 7)
	if len(out) != 7 {
		t.Fatalf("len = %d", len(out))
	}
	if out[0][0] != 0 || out[6][0] != 3 {
		t.Errorf("endpoints wrong: %v %v", out[0], out[6])
	}
	if math.Abs(out[3][0]-1.5) > 1e-12 {
		t.Errorf("midpoint = %g, want 1.5", out[3][0])
	}
	// Single-row input replicates.
	one := resampleRows([][]float64{{5, 6}}, 3)
	for _, r := range one {
		if r[0] != 5 || r[1] != 6 {
			t.Errorf("single-row resample wrong: %v", r)
		}
	}
}

func TestBuildShapesAndForward(t *testing.T) {
	cfg := DefaultFeatureConfig(8000)
	for _, kind := range ModelKinds() {
		net, err := Build(kind, cfg.NumFrames, cfg.Dim(), 7, FastScale, 1)
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		x := nn.NewMatrix(cfg.NumFrames, cfg.Dim())
		y, err := net.Forward(x, false)
		if err != nil {
			t.Fatalf("%v forward: %v", kind, err)
		}
		if y.IsMatrix() || y.Cols != 7 {
			t.Fatalf("%v output shape %s, want [7]", kind, y.ShapeString())
		}
	}
	if _, err := Build(MLP, 0, 40, 7, FastScale, 1); err == nil {
		t.Error("invalid shape accepted")
	}
	if _, err := Build(ModelKind(9), 70, 40, 7, FastScale, 1); err == nil {
		t.Error("unknown kind accepted")
	}
}

func TestPaperScaleParameterBudgets(t *testing.T) {
	// The paper quotes ~508 k (MLP), ~649 k (CNN), ~429 k (LSTM) trainable
	// parameters. Our builders must land within 10% of each.
	cfg := DefaultFeatureConfig(8000)
	budgets, err := ParamBudgets(cfg, 7)
	if err != nil {
		t.Fatal(err)
	}
	want := map[ModelKind]int{MLP: 508_000, CNN: 649_000, LSTMNet: 429_000}
	for kind, target := range want {
		got := budgets[kind]
		ratio := float64(got) / float64(target)
		if ratio < 0.90 || ratio > 1.10 {
			t.Errorf("%v has %d params, want within 10%% of %d (ratio %.3f)",
				kind, got, target, ratio)
		}
	}
}

func TestModelKindString(t *testing.T) {
	if MLP.String() != "NN" || CNN.String() != "CNN" || LSTMNet.String() != "LSTM" {
		t.Error("model names do not match the paper's labels")
	}
}

func TestDatasetClassMapping(t *testing.T) {
	spec := affectdata.CREMAD()
	clips, err := spec.Generate(1, 12)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultFeatureConfig(spec.SampleRate)
	exs, classOf, err := Dataset(clips, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(exs) != 12 {
		t.Fatalf("got %d examples", len(exs))
	}
	if len(classOf) != len(spec.Labels) {
		t.Errorf("classOf has %d classes, want %d", len(classOf), len(spec.Labels))
	}
	// Class ids are contiguous.
	seen := map[int]bool{}
	for _, cls := range classOf {
		seen[cls] = true
	}
	for i := 0; i < len(classOf); i++ {
		if !seen[i] {
			t.Errorf("class id %d missing", i)
		}
	}
}

func TestFormatConfusion(t *testing.T) {
	conf := [][]int{{3, 1}, {0, 4}}
	classes := []emotion.Label{emotion.Happy, emotion.Sad}
	s := FormatConfusion(conf, classes)
	if len(s) == 0 {
		t.Fatal("empty confusion output")
	}
	for _, want := range []string{"happy", "sad", "75.0%", "100.0%"} {
		if !contains(s, want) {
			t.Errorf("confusion output missing %q:\n%s", want, s)
		}
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && (s == sub || len(s) > 0 && index(s, sub) >= 0)
}

func index(s, sub string) int {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return i
		}
	}
	return -1
}

// TestTinyStudyEndToEnd trains all three families on a miniature corpus and
// checks every model learns far beyond chance and quantization costs little.
func TestTinyStudyEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("training study skipped in -short mode")
	}
	cfg := StudyConfig{
		ClipsPerCorpus: 84,
		TestFraction:   0.25,
		Epochs:         10,
		BatchSize:      8,
		LearningRate:   3e-3,
		Scale:          FastScale,
		Seed:           5,
		Feature:        FeatureConfig{SampleRate: 8000, NumFrames: 30, NumMFCC: 13, HistBins: 10},
	}
	// One corpus only to keep the test fast: EMOVO (7 classes).
	spec := affectdata.EMOVO()
	clips, err := spec.Generate(cfg.Seed, cfg.ClipsPerCorpus)
	if err != nil {
		t.Fatal(err)
	}
	train, test := affectdata.Split(clips, cfg.TestFraction)
	trainEx, classOf, err := Dataset(train, cfg.Feature)
	if err != nil {
		t.Fatal(err)
	}
	testEx, _, err := datasetWithClasses(test, cfg.Feature, classOf)
	if err != nil {
		t.Fatal(err)
	}
	classes := classList(classOf)
	chance := 1.0 / float64(len(classes))
	for _, kind := range ModelKinds() {
		res, err := trainOne(cfg, spec.Name, kind, trainEx, testEx, classes)
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		if res.Accuracy < 2*chance {
			t.Errorf("%v accuracy %.3f below 2x chance (%.3f)", kind, res.Accuracy, chance)
		}
		if loss := res.QuantLossPct(); loss > 10 {
			t.Errorf("%v quantization loss %.1f pp too large", kind, loss)
		}
		// Confusion matrix totals must match the test set.
		var total int
		for _, row := range res.Confusion {
			for _, v := range row {
				total += v
			}
		}
		if total != len(testEx) {
			t.Errorf("%v confusion total %d, want %d", kind, total, len(testEx))
		}
	}
}

func TestFeatureOptions(t *testing.T) {
	spec := affectdata.EMOVO()
	clips, err := spec.Generate(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	base := DefaultFeatureConfig(spec.SampleRate)
	withCMVN := base
	withCMVN.CMVN = true
	withTrim := base
	withTrim.TrimLeadingSilence = true
	for _, c := range clips {
		a, err := Features(c.Wave, base)
		if err != nil {
			t.Fatal(err)
		}
		b, err := Features(c.Wave, withCMVN)
		if err != nil {
			t.Fatal(err)
		}
		tr, err := Features(c.Wave, withTrim)
		if err != nil {
			t.Fatal(err)
		}
		if a.Rows != b.Rows || a.Cols != b.Cols || tr.Rows != a.Rows {
			t.Fatal("option shapes differ")
		}
		// CMVN changes values; columns end up near zero mean.
		var colMean float64
		for r := 0; r < b.Rows; r++ {
			colMean += b.At(r, 0)
		}
		colMean /= float64(b.Rows)
		if math.Abs(colMean) > 1e-6 {
			t.Errorf("CMVN column mean %g, want ~0", colMean)
		}
		same := true
		for i := range a.Data {
			if a.Data[i] != tr.Data[i] {
				same = false
				break
			}
		}
		if same {
			t.Error("silence trimming changed nothing on a clip with lead-in")
		}
	}
}
