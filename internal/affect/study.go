package affect

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"time"

	"affectedge/internal/affectdata"
	"affectedge/internal/emotion"
	"affectedge/internal/nn"
	"affectedge/internal/parallel"
)

// StudyConfig parameterizes the Fig 3 classifier comparison.
type StudyConfig struct {
	ClipsPerCorpus int // clips synthesized per corpus (0 = full corpus size)
	TestFraction   float64
	Epochs         int
	BatchSize      int
	LearningRate   float64
	Workers        int // data-parallel training workers (0 = GOMAXPROCS)
	Scale          ModelScale
	Seed           int64
	Feature        FeatureConfig
	// Verbose, when non-nil, receives progress lines.
	Verbose io.Writer
}

// DefaultStudyConfig returns a medium-cost configuration: large enough for
// the paper's qualitative results to emerge, small enough to run in
// minutes.
func DefaultStudyConfig() StudyConfig {
	return StudyConfig{
		ClipsPerCorpus: 420,
		TestFraction:   0.25,
		Epochs:         14,
		BatchSize:      16,
		LearningRate:   2e-3,
		Scale:          FastScale,
		Seed:           1,
		Feature:        DefaultFeatureConfig(8000),
	}
}

// ModelResult is the outcome of training one model family on one corpus.
type ModelResult struct {
	Corpus        string
	Kind          ModelKind
	Params        int
	Accuracy      float64 // float-weight test accuracy
	QuantAccuracy float64 // int8 post-training-quantized test accuracy
	FloatBytes    int     // float32 deployment size
	QuantBytes    int     // int8 deployment size
	Confusion     [][]int // test confusion matrix [target][predicted]
	Classes       []emotion.Label
	MacroF1       float64 // macro-averaged F1 over classes
	PerClass      []ClassMetrics
}

// QuantLossPct returns the accuracy loss from quantization in percentage
// points.
func (r ModelResult) QuantLossPct() float64 { return (r.Accuracy - r.QuantAccuracy) * 100 }

// StudyReport aggregates all corpus x model results.
type StudyReport struct {
	Results []ModelResult
}

// Get returns the result for a corpus/model pair.
func (s *StudyReport) Get(corpus string, kind ModelKind) (ModelResult, bool) {
	for _, r := range s.Results {
		if r.Corpus == corpus && r.Kind == kind {
			return r, true
		}
	}
	return ModelResult{}, false
}

// MeanAccuracy returns a model family's accuracy averaged over corpora
// (the paper's Fig 3b aggregation).
func (s *StudyReport) MeanAccuracy(kind ModelKind) float64 {
	var sum float64
	var n int
	for _, r := range s.Results {
		if r.Kind == kind {
			sum += r.Accuracy
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// RunStudy trains and evaluates every model family on every corpus and
// returns the aggregated report. It reproduces the data behind Fig 3a-3d.
//
// The corpus datasets are prepared first (each internally parallel over
// clips), then the full corpus×model grid fans out over the shared worker
// pool. Every cell trains an independent model on shared read-only
// example slices, and results land in corpus-major, model-order slots, so
// the report is identical at any parallel.SetWorkers setting. Verbose
// progress lines come out in cell order, each as soon as every earlier
// cell's line is out, so they too are identical at any setting.
func RunStudy(cfg StudyConfig) (*StudyReport, error) {
	if cfg.Feature.SampleRate == 0 {
		cfg.Feature = DefaultFeatureConfig(8000)
	}
	specs := affectdata.Corpora()
	type corpusData struct {
		name            string
		trainEx, testEx []nn.Example
		classes         []emotion.Label
	}
	data := make([]corpusData, len(specs))
	for ci, spec := range specs {
		clips, err := spec.Generate(cfg.Seed, cfg.ClipsPerCorpus)
		if err != nil {
			return nil, err
		}
		train, test := affectdata.Split(clips, cfg.TestFraction)
		trainEx, classOf, err := Dataset(train, cfg.Feature)
		if err != nil {
			return nil, err
		}
		testEx, _, err := datasetWithClasses(test, cfg.Feature, classOf)
		if err != nil {
			return nil, err
		}
		data[ci] = corpusData{spec.Name, trainEx, testEx, classList(classOf)}
	}
	kinds := ModelKinds()
	cells := len(specs) * len(kinds)
	var (
		vmu   sync.Mutex
		lines = make([]string, cells) // finished cells' lines not yet written
		next  int                     // first cell whose line is not yet written
	)
	results, err := parallel.Map(cells, func(cell int) (ModelResult, error) {
		d, kind := data[cell/len(kinds)], kinds[cell%len(kinds)]
		res, err := trainOne(cfg, d.name, kind, d.trainEx, d.testEx, d.classes)
		if err != nil {
			return ModelResult{}, fmt.Errorf("affect: %s on %s: %w", kind, d.name, err)
		}
		if cfg.Verbose != nil {
			line := fmt.Sprintf("%-8s %-5s acc=%.3f quant=%.3f params=%d\n",
				d.name, kind, res.Accuracy, res.QuantAccuracy, res.Params)
			vmu.Lock()
			lines[cell] = line
			for ; next < cells && lines[next] != ""; next++ {
				io.WriteString(cfg.Verbose, lines[next])
			}
			vmu.Unlock()
		}
		return res, nil
	})
	if err != nil {
		return nil, err
	}
	return &StudyReport{Results: results}, nil
}

// trainOne trains a single corpus/model combination.
func trainOne(cfg StudyConfig, corpus string, kind ModelKind, trainEx, testEx []nn.Example, classes []emotion.Label) (ModelResult, error) {
	frames := cfg.Feature.NumFrames
	dim := cfg.Feature.Dim()
	build := func() *nn.Sequential {
		net, err := Build(kind, frames, dim, len(classes), cfg.Scale, cfg.Seed+int64(kind))
		if err != nil {
			panic("affect: builder failed after validation: " + err.Error())
		}
		return net
	}
	// Validate the shape once so the builder cannot panic later.
	if _, err := Build(kind, frames, dim, len(classes), cfg.Scale, cfg.Seed); err != nil {
		return ModelResult{}, err
	}
	rep, err := nn.NewReplicated(build, cfg.Workers)
	if err != nil {
		return ModelResult{}, err
	}
	tc := nn.TrainConfig{
		Epochs:    cfg.Epochs,
		BatchSize: cfg.BatchSize,
		Optimizer: nn.NewAdam(cfg.LearningRate),
		Seed:      cfg.Seed,
	}
	var fitStart time.Time
	if mtr.trainTime.Enabled() {
		fitStart = time.Now()
	}
	if _, err := rep.Fit(trainEx, tc); err != nil {
		return ModelResult{}, err
	}
	if mtr.trainTime.Enabled() {
		mtr.trainTime.ObserveDuration(time.Since(fitStart))
	}
	mtr.modelsTrained.Inc()
	acc, err := rep.Evaluate(testEx)
	if err != nil {
		return ModelResult{}, err
	}
	countEval(mtr.evalTotal, mtr.evalCorrect, acc, len(testEx))
	conf, err := rep.ConfusionMatrix(testEx, len(classes))
	if err != nil {
		return ModelResult{}, err
	}
	// int8 post-training quantization round trip.
	qm := nn.Quantize(rep.Master)
	qnet := build()
	if err := qm.ApplyTo(qnet); err != nil {
		return ModelResult{}, err
	}
	qacc, err := qnet.Evaluate(testEx)
	if err != nil {
		return ModelResult{}, err
	}
	countEval(mtr.qevalTotal, mtr.qevalCorrect, qacc, len(testEx))
	perClass, macroF1, err := MetricsFromConfusion(conf)
	if err != nil {
		return ModelResult{}, err
	}
	return ModelResult{
		Corpus:        corpus,
		Kind:          kind,
		Params:        rep.Master.NumParams(),
		Accuracy:      acc,
		QuantAccuracy: qacc,
		FloatBytes:    nn.Float32SizeBytes(rep.Master),
		QuantBytes:    qm.SizeBytes(),
		Confusion:     conf,
		Classes:       classes,
		MacroF1:       macroF1,
		PerClass:      perClass,
	}, nil
}

// datasetWithClasses converts clips to examples using a pre-established
// label->class mapping (so test classes match training). Featurization
// fans out over the shared worker pool in clip order.
func datasetWithClasses(clips []affectdata.Clip, cfg FeatureConfig, classOf map[int]int) ([]nn.Example, map[int]int, error) {
	for _, c := range clips {
		if _, ok := classOf[int(c.Label)]; !ok {
			return nil, nil, fmt.Errorf("affect: test label %v unseen in training", c.Label)
		}
	}
	out, err := parallel.Map(len(clips), func(i int) (nn.Example, error) {
		x, err := Features(clips[i].Wave, cfg)
		if err != nil {
			return nn.Example{}, err
		}
		return nn.Example{X: x, Y: classOf[int(clips[i].Label)]}, nil
	})
	if err != nil {
		return nil, nil, err
	}
	return out, classOf, nil
}

// classList inverts a label->class map into class-ordered labels.
func classList(classOf map[int]int) []emotion.Label {
	out := make([]emotion.Label, len(classOf))
	for lbl, cls := range classOf {
		out[cls] = emotion.Label(lbl)
	}
	return out
}

// FormatConfusion renders a confusion matrix with class names, row-
// normalized percentages on the diagonal highlighted by the caller if
// desired. Rows are targets, columns predictions.
func FormatConfusion(conf [][]int, classes []emotion.Label) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-10s", "")
	for _, c := range classes {
		fmt.Fprintf(&b, "%9s", c)
	}
	b.WriteByte('\n')
	for i, row := range conf {
		fmt.Fprintf(&b, "%-10s", classes[i])
		var total int
		for _, v := range row {
			total += v
		}
		for _, v := range row {
			pct := 0.0
			if total > 0 {
				pct = 100 * float64(v) / float64(total)
			}
			fmt.Fprintf(&b, "%8.1f%%", pct)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// ParamBudgets returns the paper-scale trainable parameter counts per model
// family for the standard feature shape, sorted by family order. Used by
// the Fig 3c size comparison.
func ParamBudgets(feature FeatureConfig, classes int) (map[ModelKind]int, error) {
	out := map[ModelKind]int{}
	for _, kind := range ModelKinds() {
		net, err := Build(kind, feature.NumFrames, feature.Dim(), classes, PaperScale, 1)
		if err != nil {
			return nil, err
		}
		out[kind] = net.NumParams()
	}
	return out, nil
}

// SortResults orders results corpus-major then model order, for stable
// report output.
func SortResults(rs []ModelResult) {
	sort.SliceStable(rs, func(i, j int) bool {
		if rs[i].Corpus != rs[j].Corpus {
			return rs[i].Corpus < rs[j].Corpus
		}
		return rs[i].Kind < rs[j].Kind
	})
}
