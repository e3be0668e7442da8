package nn

import (
	"fmt"
	"math"
)

// inferRef is the integer pipeline written out one row at a time in plain
// scalar Go, independent of internal/simd: the oracle InferBatch must
// match bit for bit at every batch size and with the vector kernels on or
// off.
func inferRef(q *QMLP, data []float64) ([]float64, error) {
	if len(q.Layers) == 0 {
		return nil, fmt.Errorf("nn: empty quantized network")
	}
	if q.Layers[0].In != len(data) {
		return nil, fmt.Errorf("nn: quantized input size %d, want %d", len(data), q.Layers[0].In)
	}
	acts := make([]int8, len(data))
	for i, v := range data {
		r := math.Round(v / q.InputScale)
		if r > 127 {
			r = 127
		}
		if r < -128 {
			r = -128
		}
		acts[i] = int8(r)
	}
	for li, l := range q.Layers {
		if len(acts) != l.In {
			return nil, fmt.Errorf("nn: layer %d input %d, want %d", li, len(acts), l.In)
		}
		next := make([]int8, l.Out)
		// Requantization multiplier: accumulator scale -> out scale.
		m := l.InScale * l.WScale / l.OutScale
		last := li == len(q.Layers)-1
		var logits []float64
		if last {
			logits = make([]float64, l.Out)
		}
		for o := 0; o < l.Out; o++ {
			var acc int32
			row := l.WQ[o*l.In : (o+1)*l.In]
			for i, a := range acts {
				acc += int32(row[i]) * int32(a)
			}
			acc += l.BQ[o]
			if last {
				// Dequantize the final logits exactly once.
				v := float64(acc) * l.InScale * l.WScale
				if l.ReLU && v < 0 {
					v = 0
				}
				logits[o] = v
				continue
			}
			r := math.Round(float64(acc) * m)
			if l.ReLU && r < 0 {
				r = 0
			}
			if r > 127 {
				r = 127
			}
			if r < -128 {
				r = -128
			}
			next[o] = int8(r)
		}
		if last {
			return logits, nil
		}
		acts = next
	}
	return nil, fmt.Errorf("nn: unreachable")
}
