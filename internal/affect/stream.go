package affect

import (
	"fmt"
	"math"
	"math/rand"

	"affectedge/internal/emotion"
	"affectedge/internal/nn"
)

// StreamModel synthesizes classifier *inputs* for serving-load simulation
// (the fleet layer): each discrete emotion label owns a fixed unit-norm
// prototype in a d-dimensional feature space, and an observation stream is
// prototype + Gaussian jitter. QuantizedClassifier builds the matched
// int8 decoder — a two-layer MLP whose logits reproduce the prototype
// inner products — so generator and classifier are consistent by
// construction: a low-noise stream for label L classifies as L.
//
// This stands in for the full speech front end (DSP featurization + the
// §2 classifier) when simulating thousands of concurrent devices, where
// the quantity under test is the serving plane — batching, sharding,
// hysteresis control — not acoustic accuracy.
type StreamModel struct {
	// Dim is the feature dimensionality.
	Dim int
	// Protos[l] is the unit-norm prototype of emotion.Label(l).
	Protos [][]float64
}

// NewStreamModel builds per-label prototypes with a seeded RNG. dim must
// be at least 2.
func NewStreamModel(dim int, seed int64) (*StreamModel, error) {
	if dim < 2 {
		return nil, fmt.Errorf("affect: stream model dim %d, want >= 2", dim)
	}
	rng := rand.New(rand.NewSource(seed))
	m := &StreamModel{Dim: dim, Protos: make([][]float64, emotion.NumLabels)}
	for l := range m.Protos {
		p := make([]float64, dim)
		var norm float64
		for norm == 0 { // degenerate all-zero draws re-roll
			for i := range p {
				p[i] = rng.NormFloat64()
			}
			norm = 0
			for _, v := range p {
				norm += v * v
			}
		}
		norm = math.Sqrt(norm)
		for i := range p {
			p[i] /= norm
		}
		m.Protos[l] = p
	}
	return m, nil
}

// Normal is a source of standard normal deviates; *rand.Rand is one.
type Normal interface {
	NormFloat64() float64
}

// Sample writes one observation feature vector for label into dst (length
// Dim): the label prototype plus N(0, noise²) jitter per coordinate, drawn
// from rng. The caller owns rng, so per-session sub-seeded streams stay
// deterministic under any scheduling.
func (m *StreamModel) Sample(dst []float64, label emotion.Label, noise float64, rng Normal) error {
	if !label.Valid() {
		return fmt.Errorf("affect: stream sample for invalid label %d", int(label))
	}
	if len(dst) != m.Dim {
		return fmt.Errorf("affect: stream sample dst length %d, want %d", len(dst), m.Dim)
	}
	p := m.Protos[label]
	for i := range dst {
		dst[i] = p[i] + noise*rng.NormFloat64()
	}
	return nil
}

// QuantizedClassifier builds the int8 inference pipeline matched to the
// prototypes: logits_c = <x, proto_c>, computed as a Dense(d, 2C) layer
// holding [protos; -protos] rows, a ReLU, and a Dense(2C, C) head with
// weights [I | -I] — relu(a) - relu(-a) = a, so the stack is exactly the
// prototype inner products while still exercising a multi-layer batched
// int8 pipeline. Calibration spans the jittered input range for the given
// noise level.
func (m *StreamModel) QuantizedClassifier(noise float64) (*nn.QMLP, error) {
	c := len(m.Protos)
	rng := rand.New(rand.NewSource(1)) // init is overwritten below
	l1 := nn.NewDense(m.Dim, 2*c, rng)
	l2 := nn.NewDense(2*c, c, rng)
	for l, p := range m.Protos {
		for i, v := range p {
			l1.W.W[l*m.Dim+i] = v
			l1.W.W[(c+l)*m.Dim+i] = -v
		}
	}
	for i := range l1.B.W {
		l1.B.W[i] = 0
	}
	for i := range l2.W.W {
		l2.W.W[i] = 0
	}
	for o := 0; o < c; o++ {
		l2.W.W[o*2*c+o] = 1
		l2.W.W[o*2*c+c+o] = -1
	}
	for i := range l2.B.W {
		l2.B.W[i] = 0
	}
	net := nn.NewSequential(l1, nn.NewReLU(), l2)

	// Calibration examples: each prototype at the extremes of the jittered
	// range, so activation scales cover what Sample emits.
	span := 1 + 4*noise
	var examples []nn.Example
	for l, p := range m.Protos {
		for _, s := range []float64{span, -span} {
			x := nn.NewVector(m.Dim)
			for i, v := range p {
				x.Data[i] = s * v
			}
			examples = append(examples, nn.Example{X: x, Y: l})
		}
	}
	st, err := nn.CalibrateMLP(net, examples)
	if err != nil {
		return nil, err
	}
	return nn.BuildQMLP(net, st)
}
