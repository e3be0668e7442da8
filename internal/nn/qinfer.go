package nn

import (
	"fmt"
	"math"
	"sync"

	"affectedge/internal/simd"
)

// True int8 inference: weights AND activations quantized to int8 with
// int32 accumulators — the arithmetic an NPU or DSP actually executes,
// as opposed to QuantizedModel.ApplyTo which stores int8 but computes in
// float. Supported for MLP-style stacks (Dense + ReLU + Flatten), which is
// what a watch-class deployment of the paper's "NN" model uses.

// QDense is one integer-arithmetic dense layer: y_int32 = W_q * x_q,
// rescaled to the next layer's activation scale.
type QDense struct {
	In, Out int
	WQ      []int8  // [out][in] row-major
	BQ      []int32 // bias in accumulator scale (inScale*wScale)
	WScale  float64
	// InScale/OutScale quantize activations entering/leaving this layer.
	InScale, OutScale float64
	// ReLU folds the activation into the requantization.
	ReLU bool

	// packOnce builds pack, the QGEMM form of WQ/BQ, once per layer.
	// Unexported, so gob leaves it out of a saved model.
	packOnce sync.Once
	pack     *simd.QPack
}

// QMLP is a quantized MLP pipeline.
type QMLP struct {
	Layers []*QDense
	// InputScale quantizes the float input vector.
	InputScale float64
}

// CalibrationStats collects per-tensor activation ranges on representative
// inputs, needed to pick activation scales.
type CalibrationStats struct {
	// MaxAbs[i] is the largest |activation| entering layer i (i=0 is the
	// network input); MaxAbs[len(layers)] is the output logits range.
	MaxAbs []float64
}

// CalibrateMLP runs representative examples through a float Dense/ReLU/
// Flatten network and records activation ranges.
func CalibrateMLP(n *Sequential, examples []Example) (*CalibrationStats, error) {
	denseCount := 0
	for _, l := range n.Layers {
		switch l.(type) {
		case *Dense, *ReLU, *Flatten:
			if _, ok := l.(*Dense); ok {
				denseCount++
			}
		default:
			return nil, fmt.Errorf("nn: int8 inference supports Dense/ReLU/Flatten only, got %s", l.Name())
		}
	}
	if denseCount == 0 {
		return nil, fmt.Errorf("nn: no dense layers to quantize")
	}
	if len(examples) == 0 {
		return nil, fmt.Errorf("nn: calibration needs examples")
	}
	st := &CalibrationStats{MaxAbs: make([]float64, denseCount+1)}
	for _, ex := range examples {
		x := ex.X
		idx := 0
		// Track the max-abs entering each dense layer.
		cur := x
		for _, l := range n.Layers {
			switch ll := l.(type) {
			case *Flatten:
				out, err := ll.Forward(cur, false)
				if err != nil {
					return nil, err
				}
				cur = out
			case *Dense:
				st.MaxAbs[idx] = math.Max(st.MaxAbs[idx], maxAbs(cur.Data))
				out, err := ll.Forward(cur, false)
				if err != nil {
					return nil, err
				}
				cur = out
				idx++
			case *ReLU:
				out, err := ll.Forward(cur, false)
				if err != nil {
					return nil, err
				}
				cur = out
			}
		}
		st.MaxAbs[denseCount] = math.Max(st.MaxAbs[denseCount], maxAbs(cur.Data))
	}
	return st, nil
}

func maxAbs(xs []float64) float64 {
	var m float64
	for _, v := range xs {
		if a := math.Abs(v); a > m {
			m = a
		}
	}
	return m
}

// BuildQMLP converts a calibrated float MLP into the integer pipeline.
func BuildQMLP(n *Sequential, st *CalibrationStats) (*QMLP, error) {
	if st == nil || len(st.MaxAbs) == 0 {
		return nil, fmt.Errorf("nn: missing calibration")
	}
	scaleOf := func(maxAbs float64) float64 {
		if maxAbs == 0 {
			return 1
		}
		return maxAbs / 127
	}
	q := &QMLP{InputScale: scaleOf(st.MaxAbs[0])}
	idx := 0
	var pendingReLU *QDense
	for _, l := range n.Layers {
		switch ll := l.(type) {
		case *Dense:
			wq := QuantizeTensor(ll.W.W)
			inScale := scaleOf(st.MaxAbs[idx])
			outScale := scaleOf(st.MaxAbs[idx+1])
			bq := make([]int32, ll.Out)
			for o := 0; o < ll.Out; o++ {
				bq[o] = int32(math.Round(ll.B.W[o] / (inScale * wq.Scale)))
			}
			qd := &QDense{
				In: ll.In, Out: ll.Out,
				WQ: wq.Q, BQ: bq,
				WScale: wq.Scale, InScale: inScale, OutScale: outScale,
			}
			q.Layers = append(q.Layers, qd)
			pendingReLU = qd
			idx++
		case *ReLU:
			if pendingReLU == nil {
				return nil, fmt.Errorf("nn: ReLU before any dense layer")
			}
			pendingReLU.ReLU = true
			pendingReLU = nil
		case *Flatten:
			// shape-only; nothing to quantize
		default:
			return nil, fmt.Errorf("nn: int8 inference supports Dense/ReLU/Flatten only, got %s", l.Name())
		}
	}
	if len(q.Layers) == 0 {
		return nil, fmt.Errorf("nn: nothing quantized")
	}
	for _, l := range q.Layers {
		l.packed() // pack at build time, not on the first served batch
	}
	return q, nil
}

// Infer runs the integer pipeline on a float input (rank-1 or flattened
// rank-2) and returns float logits (dequantized once at the output). It
// is InferBatch on one row.
func (q *QMLP) Infer(x *Tensor) ([]float64, error) {
	if len(q.Layers) == 0 {
		return nil, fmt.Errorf("nn: empty quantized network")
	}
	logits := make([]float64, q.Layers[len(q.Layers)-1].Out)
	if err := q.InferBatch(nil, x.Data, 1, logits); err != nil {
		return nil, err
	}
	return logits, nil
}

// PredictClass returns the argmax class of the integer pipeline.
func (q *QMLP) PredictClass(x *Tensor) (int, error) {
	logits, err := q.Infer(x)
	if err != nil {
		return -1, err
	}
	return Argmax(logits), nil
}

// packed returns the layer's weights in the simd.QGEMM form. BuildQMLP
// builds it; a QMLP assembled or decoded elsewhere gets it on first use.
func (l *QDense) packed() *simd.QPack {
	l.packOnce.Do(func() { l.pack = simd.PackQ(l.WQ, l.BQ, l.In, l.Out) })
	return l.pack
}

// QScratch holds the reusable buffers of batched integer inference. Buffers
// grow on demand and are retained across calls, so a steady-state serving
// loop performs zero allocations. A QScratch must not be shared between
// concurrent InferBatch calls; give each goroutine (or shard) its own.
type QScratch struct {
	cur, next []int8
	acc       []int32
}

// InferBatch runs the integer pipeline on m input rows packed row-major in
// x (each row Layers[0].In floats) and writes m×classes float logits into
// out: it quantizes the rows (QuantizeInput) and hands them to
// InferBatchI8, which validates the shapes. s may be nil (a temporary
// scratch is allocated).
func (q *QMLP) InferBatch(s *QScratch, x []float64, m int, out []float64) error {
	if s == nil {
		s = &QScratch{}
	}
	s.cur = growI8(s.cur, len(x))
	q.QuantizeInput(s.cur, x)
	return q.InferBatchI8(s, s.cur, m, out)
}

// QuantizeInput writes x quantized at InputScale into dst
// (len(dst) >= len(x)): the int8 rows InferBatchI8 reads. It is
// elementwise, so rows may be quantized one at a time or all at once.
func (q *QMLP) QuantizeInput(dst []int8, x []float64) {
	simd.QuantizeI8(dst, x, q.InputScale)
}

// InferBatchI8 runs the integer pipeline on m already-quantized input rows
// packed row-major in xq (each row Layers[0].In int8s, as QuantizeInput
// writes them) and writes m×classes float logits into out.
// Each stage is one internal/simd kernel call over all m rows: per layer
// one int8 GEMM followed by either a requantize into the next layer's int8
// activations (ReLU folded in) or, after the last layer, the single
// dequantization to float logits. Rows never interact, so row r's logits
// do not depend on m. xq is only read; it may be s's own input buffer (as
// InferBatch passes it). s may be nil (a temporary scratch is allocated).
func (q *QMLP) InferBatchI8(s *QScratch, xq []int8, m int, out []float64) error {
	if len(q.Layers) == 0 {
		return fmt.Errorf("nn: empty quantized network")
	}
	if m <= 0 {
		return fmt.Errorf("nn: batch size %d, want > 0", m)
	}
	in0 := q.Layers[0].In
	if len(xq) != m*in0 {
		return fmt.Errorf("nn: batch input %d values, want %d (m=%d × in=%d)", len(xq), m*in0, m, in0)
	}
	classes := q.Layers[len(q.Layers)-1].Out
	if len(out) < m*classes {
		return fmt.Errorf("nn: batch output %d floats, want >= %d (m=%d × classes=%d)", len(out), m*classes, m, classes)
	}
	if s == nil {
		s = &QScratch{}
	}
	cur, width := xq, in0
	for li, l := range q.Layers {
		if width != l.In {
			return fmt.Errorf("nn: layer %d input %d, want %d", li, width, l.In)
		}
		s.acc = growI32(s.acc, m*l.Out)
		mtr.qgemmCalls.Inc()
		simd.QGEMM(s.acc, cur, l.packed(), m)
		if li == len(q.Layers)-1 {
			// Dequantize the final logits exactly once.
			simd.DequantizeI32(out[:m*l.Out], s.acc, l.InScale, l.WScale, l.ReLU)
			return nil
		}
		s.next = growI8(s.next, m*l.Out)
		// Requantization multiplier: accumulator scale -> out scale.
		simd.RequantizeI8(s.next, s.acc, l.InScale*l.WScale/l.OutScale, l.ReLU)
		// Swap buffers: the one just read (xq itself, when InferBatch
		// passed s.cur) is consumed and takes the next layer's output.
		cur = s.next
		s.cur, s.next = s.next, s.cur
		width = l.Out
	}
	return fmt.Errorf("nn: unreachable")
}

// Evaluate returns integer-pipeline accuracy on examples, classifying them
// with one InferBatch call per chunk of evalChunk examples.
func (q *QMLP) Evaluate(examples []Example) (float64, error) {
	if len(examples) == 0 {
		return 0, fmt.Errorf("nn: no evaluation examples")
	}
	if len(q.Layers) == 0 {
		return 0, fmt.Errorf("nn: empty quantized network")
	}
	in0 := q.Layers[0].In
	classes := q.Layers[len(q.Layers)-1].Out
	var s QScratch
	var x, logits []float64
	var hit int
	for start := 0; start < len(examples); start += evalChunk {
		end := min(start+evalChunk, len(examples))
		m := end - start
		x = growF64(x, m*in0)
		for k := 0; k < m; k++ {
			data := flattenExample(examples[start+k].X).Data
			if len(data) != in0 {
				return 0, fmt.Errorf("nn: quantized input size %d, want %d", len(data), in0)
			}
			copy(x[k*in0:], data)
		}
		logits = growF64(logits, m*classes)
		if err := q.InferBatch(&s, x, m, logits); err != nil {
			return 0, err
		}
		for k := 0; k < m; k++ {
			if Argmax(logits[k*classes:(k+1)*classes]) == examples[start+k].Y {
				hit++
			}
		}
	}
	return float64(hit) / float64(len(examples)), nil
}

// flattenExample views a rank-2 tensor as rank-1 (MLPs flatten anyway).
func flattenExample(x *Tensor) *Tensor {
	if !x.IsMatrix() {
		return x
	}
	return &Tensor{Data: x.Data, Cols: len(x.Data)}
}

// SizeBytes returns the integer pipeline's deployment size: int8 weights,
// int32 biases, and the handful of scales.
func (q *QMLP) SizeBytes() int {
	n := 8 // input scale
	for _, l := range q.Layers {
		n += len(l.WQ) + 4*len(l.BQ) + 3*8
	}
	return n
}
