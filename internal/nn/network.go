package nn

import (
	"encoding/gob"
	"fmt"
	"io"
	"math/rand"
	"time"
)

// Sequential is a stack of layers trained with softmax cross-entropy.
type Sequential struct {
	Layers []Layer
	// ClipNorm, when positive, clips the global gradient norm per batch.
	ClipNorm float64
}

// NewSequential returns a network over the given layers.
func NewSequential(layers ...Layer) *Sequential {
	return &Sequential{Layers: layers, ClipNorm: 5}
}

// Params returns all learnable parameters in layer order.
func (n *Sequential) Params() []*Param {
	var out []*Param
	for _, l := range n.Layers {
		out = append(out, l.Params()...)
	}
	return out
}

// NumParams returns the total learnable parameter count.
func (n *Sequential) NumParams() int {
	var c int
	for _, p := range n.Params() {
		c += len(p.W)
	}
	return c
}

// Forward runs the network on one input.
func (n *Sequential) Forward(x *Tensor, train bool) (*Tensor, error) {
	var err error
	for _, l := range n.Layers {
		x, err = l.Forward(x, train)
		if err != nil {
			return nil, err
		}
	}
	return x, nil
}

// Predict returns class probabilities for one input.
func (n *Sequential) Predict(x *Tensor) ([]float64, error) {
	y, err := n.Forward(x, false)
	if err != nil {
		return nil, err
	}
	return Softmax(y.Data), nil
}

// PredictClass returns the most probable class index for one input.
func (n *Sequential) PredictClass(x *Tensor) (int, error) {
	p, err := n.Predict(x)
	if err != nil {
		return -1, err
	}
	return Argmax(p), nil
}

// backward pushes a loss gradient through all layers.
func (n *Sequential) backward(grad *Tensor) error {
	var err error
	for i := len(n.Layers) - 1; i >= 0; i-- {
		grad, err = n.Layers[i].Backward(grad)
		if err != nil {
			return err
		}
	}
	return nil
}

// Example is one labelled training sample.
type Example struct {
	X *Tensor
	Y int
}

// TrainConfig controls Fit.
type TrainConfig struct {
	Epochs    int
	BatchSize int
	Optimizer Optimizer
	Seed      int64
	// Verbose, when non-nil, receives one line per epoch.
	Verbose func(epoch int, loss float64, acc float64)

	// perExample forces the per-example forward/backward path even when
	// every layer supports batching. The batched path is
	// Float64bits-identical; only this package's equivalence tests and
	// baseline benchmarks set it.
	perExample bool
}

// Fit trains the network on examples with mini-batch gradient descent and
// returns the final epoch's mean loss. It is the one-replica case of
// Replicated.Fit; see fit.
func (n *Sequential) Fit(examples []Example, cfg TrainConfig) (float64, error) {
	return fit([]*Sequential{n}, examples, cfg)
}

// fit is the training loop behind Fit and Replicated.Fit. nets[0] is the
// master: the optimizer steps its parameters, which are then copied into
// nets[1:]. Each mini-batch is striped across the nets (net w takes batch
// elements w, w+R, ...) and runs through the batched GEMM path when every
// layer supports it (BatchCapable), the per-example path otherwise. The
// batched kernels keep gradient accumulation in stripe order and replica
// gradients merge in replica order, so weights are bit-identical to the
// per-example path at any replica count. Each worker sums its loss over
// the whole epoch and the sums add in worker order; with one net that is
// the serial example-order sum.
func fit(nets []*Sequential, examples []Example, cfg TrainConfig) (float64, error) {
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
	master := nets[0]
	_, uniform := uniformWidth(examples)
	batched := !cfg.perExample && uniform && master.BatchCapable()
	workers := make([]batchWorker, len(nets))
	for w := range workers {
		workers[w] = batchWorker{net: nets[w], idx: make([]int, 0, cfg.BatchSize)}
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	order := make([]int, len(examples))
	for i := range order {
		order[i] = i
	}
	params := master.Params()
	var lastLoss float64
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		var epochStart time.Time
		if mtr.epochTime.Enabled() {
			epochStart = time.Now()
		}
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		for w := range workers {
			workers[w].loss, workers[w].hits = 0, 0
		}
		for start := 0; start < len(order); start += cfg.BatchSize {
			batch := order[start:min(start+cfg.BatchSize, len(order))]
			err := stripe(min(len(workers), len(batch)), func(w int) error {
				return workers[w].run(examples, batch, w, len(workers), batched)
			})
			if err != nil {
				return 0, err
			}
			mergeGrads(params, nets[1:])
			if master.ClipNorm > 0 {
				ClipGradients(params, master.ClipNorm*float64(len(batch)))
			}
			cfg.Optimizer.Step(params, len(batch))
			broadcast(params, nets[1:])
		}
		var epochLoss float64
		var correct int
		for _, bw := range workers {
			epochLoss += bw.loss
			correct += bw.hits
		}
		lastLoss = epochLoss / float64(len(order))
		if mtr.epochTime.Enabled() {
			mtr.epochTime.ObserveDuration(time.Since(epochStart))
		}
		if cfg.Verbose != nil {
			cfg.Verbose(epoch, lastLoss, float64(correct)/float64(len(order)))
		}
	}
	return lastLoss, nil
}

// batchWorker is one replica's share of training: its network, the
// reusable batch-assembly scratch (steady-state steps allocate nothing)
// and its running loss and correct-prediction tallies for the epoch.
type batchWorker struct {
	net     *Sequential
	x, grad Tensor
	idx     []int
	loss    float64
	hits    int
}

// run trains on this worker's stripe of batch (elements w, w+stride, ...),
// accumulating gradients into its network's parameters.
func (bw *batchWorker) run(examples []Example, batch []int, w, stride int, batched bool) error {
	bw.idx = bw.idx[:0]
	for bi := w; bi < len(batch); bi += stride {
		bw.idx = append(bw.idx, batch[bi])
	}
	if batched {
		return bw.step(examples, bw.idx)
	}
	for _, id := range bw.idx {
		if err := bw.stepOne(examples[id]); err != nil {
			return err
		}
	}
	return nil
}

// stepOne runs the rank-1 forward/loss/backward pass for one example.
func (bw *batchWorker) stepOne(ex Example) error {
	y, err := bw.net.Forward(ex.X, true)
	if err != nil {
		return err
	}
	loss, grad, err := CrossEntropy(y.Data, ex.Y)
	if err != nil {
		return err
	}
	bw.loss += loss
	if Argmax(y.Data) == ex.Y {
		bw.hits++
	}
	return bw.net.backward(FromVector(grad))
}

// step runs one forward/loss/backward pass over examples[idx] (rows in
// idx order), accumulating gradients into the network parameters. Loss
// and correct-prediction tallies add one example at a time in idx order —
// the same summation tree as stepOne, so running totals match it bit for
// bit.
func (bw *batchWorker) step(examples []Example, idx []int) error {
	m := len(idx)
	mtr.trainSteps.Inc()
	mtr.kernelRows.Observe(int64(m))
	inW := len(examples[idx[0]].X.Data)
	x := bw.x.reshape(m, inW)
	for k, id := range idx {
		copy(x.Data[k*inW:(k+1)*inW], examples[id].X.Data)
	}
	y, err := bw.net.ForwardBatch(x, true)
	if err != nil {
		return err
	}
	g := bw.grad.reshape(m, y.Cols)
	for r := 0; r < m; r++ {
		target := examples[idx[r]].Y
		row := y.Row(r)
		l, err := crossEntropyInto(g.Row(r), row, target)
		if err != nil {
			return err
		}
		bw.loss += l
		if Argmax(row) == target {
			bw.hits++
		}
	}
	return bw.net.backwardBatch(g)
}

// uniformWidth reports whether every example flattens to the same element
// count (required to pack a batch matrix), and that width.
func uniformWidth(examples []Example) (int, bool) {
	if len(examples) == 0 {
		return 0, false
	}
	w := len(examples[0].X.Data)
	for _, ex := range examples[1:] {
		if len(ex.X.Data) != w {
			return 0, false
		}
	}
	return w, true
}

// Evaluate returns classification accuracy on examples. It is the
// one-replica case of Replicated.Evaluate; see predict.
func (n *Sequential) Evaluate(examples []Example) (float64, error) {
	return accuracy([]*Sequential{n}, examples)
}

// evalChunk is the batch size used for batched evaluation; large enough
// to amortize the GEMM, small enough to keep scratch cache-resident.
const evalChunk = 64

// predictClasses sets preds[id] to the predicted class of examples[id] for
// each id in idx, batching through the GEMM path when possible and
// falling back to per-example inference otherwise (the batched per-row
// arithmetic matches the rank-1 path bit for bit). Softmax is applied per
// row before the argmax so tie-breaking matches PredictClass exactly.
func (n *Sequential) predictClasses(examples []Example, idx []int, preds []int) error {
	_, uniform := uniformWidth(examples)
	if !uniform || !n.BatchCapable() {
		for _, id := range idx {
			c, err := n.PredictClass(examples[id].X)
			if err != nil {
				return err
			}
			preds[id] = c
		}
		return nil
	}
	var x Tensor
	var probs []float64
	for start := 0; start < len(idx); start += evalChunk {
		chunk := idx[start:min(start+evalChunk, len(idx))]
		inW := len(examples[chunk[0]].X.Data)
		xb := x.reshape(len(chunk), inW)
		for k, id := range chunk {
			copy(xb.Data[k*inW:(k+1)*inW], examples[id].X.Data)
		}
		y, err := n.ForwardBatch(xb, false)
		if err != nil {
			return err
		}
		probs = growF64(probs, y.Cols)
		for r, id := range chunk {
			softmaxInto(probs, y.Row(r))
			preds[id] = Argmax(probs)
		}
	}
	return nil
}

// snapshotVersion is the wire version of the network envelope. Bump it
// whenever the serialized layout changes meaning; decoding any other
// version fails with *VersionError rather than loading garbage weights.
const snapshotVersion = 1

// VersionError reports a network snapshot whose wire version does not
// match what this build reads. Pre-versioning blobs decode as version 0.
type VersionError struct {
	Got, Want int
}

func (e *VersionError) Error() string {
	return fmt.Sprintf("nn: network snapshot version %d, want %d", e.Got, e.Want)
}

// snapshot is the gob wire format: the envelope version and parameter
// payloads in layer order.
type snapshot struct {
	Version int
	Params  [][]float64
}

// Save writes all parameter values to w (gob encoded). The architecture
// itself is not serialized; Load must be called on an identically
// constructed network.
func (n *Sequential) Save(w io.Writer) error {
	s := snapshot{Version: snapshotVersion}
	for _, p := range n.Params() {
		cp := make([]float64, len(p.W))
		copy(cp, p.W)
		s.Params = append(s.Params, cp)
	}
	return gob.NewEncoder(w).Encode(&s)
}

// Load restores parameter values previously written by Save into an
// identically shaped network. A wrong-version envelope (including
// pre-versioning blobs, which decode as version 0) fails with
// *VersionError before any weight is touched.
func (n *Sequential) Load(r io.Reader) error {
	var s snapshot
	if err := gob.NewDecoder(r).Decode(&s); err != nil {
		return err
	}
	if s.Version != snapshotVersion {
		return &VersionError{Got: s.Version, Want: snapshotVersion}
	}
	params := n.Params()
	if len(s.Params) != len(params) {
		return fmt.Errorf("nn: snapshot has %d tensors, network has %d", len(s.Params), len(params))
	}
	// Validate every shape before copying anything so a mismatched
	// snapshot never half-applies.
	for i, p := range params {
		if len(s.Params[i]) != len(p.W) {
			return fmt.Errorf("nn: snapshot tensor %d has %d values, want %d", i, len(s.Params[i]), len(p.W))
		}
	}
	for i, p := range params {
		copy(p.W, s.Params[i])
	}
	return nil
}
