package nn

import (
	"fmt"
	"runtime"
	"sync"
)

// Replicated wraps N architecture-identical replicas of a network for
// data-parallel training: each batch is split across replicas, per-replica
// gradients are merged into the master, the optimizer steps the master, and
// the updated weights are broadcast back. A lone Sequential trains and
// predicts through the same loops as the one-replica case.
//
// Layer forward caches make a single Sequential unsafe for concurrent use;
// replication is the supported way to parallelize.
type Replicated struct {
	Master *Sequential
	nets   []*Sequential // Master first, then the replicas
}

// NewReplicated builds a master plus workers-1 replicas using build, which
// must construct identical architectures (it may use its own RNG; weights
// are synchronized from the master before any training). workers <= 0
// selects GOMAXPROCS.
func NewReplicated(build func() *Sequential, workers int) (*Replicated, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	master := build()
	r := &Replicated{Master: master, nets: []*Sequential{master}}
	nMaster := master.NumParams()
	for i := 1; i < workers; i++ {
		rep := build()
		if rep.NumParams() != nMaster {
			return nil, fmt.Errorf("nn: replica %d has %d params, master has %d", i, rep.NumParams(), nMaster)
		}
		r.nets = append(r.nets, rep)
	}
	broadcast(master.Params(), r.nets[1:])
	return r, nil
}

// broadcast copies the master parameters mp into every replica.
func broadcast(mp []*Param, replicas []*Sequential) {
	for _, rep := range replicas {
		for i, p := range rep.Params() {
			copy(p.W, mp[i].W)
		}
	}
}

// mergeGrads adds replica gradients into the master parameters mp, in
// replica order, and zeroes them.
func mergeGrads(mp []*Param, replicas []*Sequential) {
	for _, rep := range replicas {
		for i, p := range rep.Params() {
			for j, g := range p.Grad {
				mp[i].Grad[j] += g
			}
			p.ZeroGrad()
		}
	}
}

// stripe runs f(0), ..., f(n-1) concurrently and returns the first error
// in worker order. f(0) runs on the calling goroutine, and always runs, so
// n <= 1 starts no goroutine.
func stripe(n int, f func(w int) error) error {
	if n <= 1 {
		return f(0)
	}
	errs := make([]error, n)
	var wg sync.WaitGroup
	for w := 1; w < n; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			errs[w] = f(w)
		}(w)
	}
	errs[0] = f(0)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Fit trains the master network with data-parallel mini-batches and returns
// the final epoch's mean loss. Weights are bit-identical to the
// per-example path at any worker count; see fit.
func (r *Replicated) Fit(examples []Example, cfg TrainConfig) (float64, error) {
	return fit(r.nets, examples, cfg)
}

// predict returns each example's predicted class, striping examples across
// nets (example i goes to nets[i%len(nets)]). Predictions are per-example
// independent, so the striping cannot affect results.
func predict(nets []*Sequential, examples []Example) ([]int, error) {
	preds := make([]int, len(examples))
	err := stripe(min(len(nets), len(examples)), func(w int) error {
		idx := make([]int, 0, (len(examples)-w+len(nets)-1)/len(nets))
		for i := w; i < len(examples); i += len(nets) {
			idx = append(idx, i)
		}
		return nets[w].predictClasses(examples, idx, preds)
	})
	if err != nil {
		return nil, err
	}
	return preds, nil
}

// accuracy is the fraction of examples whose predicted class is the label.
func accuracy(nets []*Sequential, examples []Example) (float64, error) {
	if len(examples) == 0 {
		return 0, fmt.Errorf("nn: no evaluation examples")
	}
	preds, err := predict(nets, examples)
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

// Evaluate computes accuracy using all replicas in parallel.
func (r *Replicated) Evaluate(examples []Example) (float64, error) {
	return accuracy(r.nets, examples)
}

// ConfusionMatrix returns counts[target][predicted] over examples using the
// replicas in parallel. numClasses rows/cols.
func (r *Replicated) ConfusionMatrix(examples []Example, numClasses int) ([][]int, error) {
	preds, err := predict(r.nets, examples)
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
