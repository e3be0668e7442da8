package nn

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
)

// Replicated wraps N architecture-identical replicas of a network for
// data-parallel training: each batch is split across replicas, per-replica
// gradients are merged into the master, the optimizer steps the master, and
// the updated weights are broadcast back.
//
// Layer forward caches make a single Sequential unsafe for concurrent use;
// replication is the supported way to parallelize.
type Replicated struct {
	Master   *Sequential
	replicas []*Sequential
}

// NewReplicated builds a master plus workers-1 replicas using build, which
// must construct identical architectures (it may use its own RNG; weights
// are synchronized from the master before any training). workers <= 0
// selects GOMAXPROCS.
func NewReplicated(build func() *Sequential, workers int) (*Replicated, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	r := &Replicated{Master: build()}
	nMaster := r.Master.NumParams()
	for i := 1; i < workers; i++ {
		rep := build()
		if rep.NumParams() != nMaster {
			return nil, fmt.Errorf("nn: replica %d has %d params, master has %d", i, rep.NumParams(), nMaster)
		}
		r.replicas = append(r.replicas, rep)
	}
	r.broadcast()
	return r, nil
}

// all returns master plus replicas.
func (r *Replicated) all() []*Sequential {
	return append([]*Sequential{r.Master}, r.replicas...)
}

// broadcast copies master weights into every replica.
func (r *Replicated) broadcast() {
	mp := r.Master.Params()
	for _, rep := range r.replicas {
		for i, p := range rep.Params() {
			copy(p.W, mp[i].W)
		}
	}
}

// mergeGrads adds replica gradients into the master and zeroes them.
func (r *Replicated) mergeGrads() {
	mp := r.Master.Params()
	for _, rep := range r.replicas {
		for i, p := range rep.Params() {
			for j, g := range p.Grad {
				mp[i].Grad[j] += g
			}
			p.ZeroGrad()
		}
	}
}

// Fit trains the master network with data-parallel mini-batches and returns
// the final epoch's mean loss.
//
// Each replica processes the same strided slice of the batch it always
// did (worker w takes batch elements w, w+R, ...), whether it runs the
// per-example path or the batched GEMM path: the batched kernels keep
// gradient accumulation in that stride order and replica gradients merge
// in replica order, so results are bit-identical to the per-example path
// at any worker count.
func (r *Replicated) Fit(examples []Example, cfg TrainConfig) (float64, error) {
	if len(examples) == 0 {
		return 0, fmt.Errorf("nn: no training examples")
	}
	if cfg.Epochs <= 0 {
		cfg.Epochs = 1
	}
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 32
	}
	if cfg.Optimizer == nil {
		cfg.Optimizer = NewAdam(1e-3)
	}
	nets := r.all()
	_, uniform := uniformWidth(examples)
	useBatch := !cfg.perExample && uniform && r.Master.BatchCapable()
	workers := make([]batchWorker, len(nets))
	subsets := make([][]int, len(nets))
	for w := range nets {
		workers[w].net = nets[w]
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	order := make([]int, len(examples))
	for i := range order {
		order[i] = i
	}
	masterParams := r.Master.Params()
	var lastLoss float64
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		var epochLoss float64
		var correct int
		for start := 0; start < len(order); start += cfg.BatchSize {
			end := start + cfg.BatchSize
			if end > len(order) {
				end = len(order)
			}
			batch := order[start:end]
			losses := make([]float64, len(nets))
			hits := make([]int, len(nets))
			errs := make([]error, len(nets))
			var wg sync.WaitGroup
			for w := range nets {
				if w >= len(batch) {
					break
				}
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					net := nets[w]
					if useBatch {
						idx := subsets[w][:0]
						for bi := w; bi < len(batch); bi += len(nets) {
							idx = append(idx, batch[bi])
						}
						subsets[w] = idx
						if err := workers[w].step(examples, idx, &losses[w], &hits[w]); err != nil {
							errs[w] = err
						}
						return
					}
					for bi := w; bi < len(batch); bi += len(nets) {
						ex := examples[batch[bi]]
						y, err := net.Forward(ex.X, true)
						if err != nil {
							errs[w] = err
							return
						}
						loss, grad, err := CrossEntropy(y.Data, ex.Y)
						if err != nil {
							errs[w] = err
							return
						}
						losses[w] += loss
						if Argmax(y.Data) == ex.Y {
							hits[w]++
						}
						if err := net.backward(FromVector(grad)); err != nil {
							errs[w] = err
							return
						}
					}
				}(w)
			}
			wg.Wait()
			for _, err := range errs {
				if err != nil {
					return 0, err
				}
			}
			for w := range nets {
				epochLoss += losses[w]
				correct += hits[w]
			}
			r.mergeGrads()
			if r.Master.ClipNorm > 0 {
				ClipGradients(masterParams, r.Master.ClipNorm*float64(len(batch)))
			}
			cfg.Optimizer.Step(masterParams, len(batch))
			r.broadcast()
		}
		lastLoss = epochLoss / float64(len(order))
		if cfg.Verbose != nil {
			cfg.Verbose(epoch, lastLoss, float64(correct)/float64(len(order)))
		}
	}
	return lastLoss, nil
}

// predictAll fills preds[i] with each example's predicted class, striping
// examples across the replicas and using each replica's batched forward
// path when available. Predictions are per-example independent, so the
// striping cannot affect results.
func (r *Replicated) predictAll(examples []Example) ([]int, error) {
	nets := r.all()
	preds := make([]int, len(examples))
	errs := make([]error, len(nets))
	var wg sync.WaitGroup
	for w := range nets {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var idx []int
			for i := w; i < len(examples); i += len(nets) {
				idx = append(idx, i)
			}
			if len(idx) == 0 {
				return
			}
			sub := make([]int, len(idx))
			if err := nets[w].predictClasses(examples, idx, sub); err != nil {
				errs[w] = err
				return
			}
			for k, i := range idx {
				preds[i] = sub[k]
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return preds, nil
}

// Evaluate computes accuracy using all replicas in parallel.
func (r *Replicated) Evaluate(examples []Example) (float64, error) {
	if len(examples) == 0 {
		return 0, fmt.Errorf("nn: no evaluation examples")
	}
	preds, err := r.predictAll(examples)
	if err != nil {
		return 0, err
	}
	var correct int
	for i, ex := range examples {
		if preds[i] == ex.Y {
			correct++
		}
	}
	return float64(correct) / float64(len(examples)), nil
}

// ConfusionMatrix returns counts[target][predicted] over examples using the
// replicas in parallel. numClasses rows/cols.
func (r *Replicated) ConfusionMatrix(examples []Example, numClasses int) ([][]int, error) {
	preds, err := r.predictAll(examples)
	if err != nil {
		return nil, err
	}
	m := make([][]int, numClasses)
	for i := range m {
		m[i] = make([]int, numClasses)
	}
	for i, ex := range examples {
		if ex.Y >= 0 && ex.Y < numClasses && preds[i] >= 0 && preds[i] < numClasses {
			m[ex.Y][preds[i]]++
		}
	}
	return m, nil
}
