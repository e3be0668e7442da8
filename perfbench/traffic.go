package main

import (
	"fmt"
	"math/rand"

	"affectedge/internal/affect"
	"affectedge/internal/emotion"
)

// Traffic shape shared with the fleet's own simulation defaults, so live
// workloads see the discard, mood-switch and mode-switch rates the
// deterministic path produces.
const (
	featureDim  = 24   // fleet.Config default FeatureDim
	noise       = 0.15 // fleet.Config default Noise; the classifier is calibrated to it
	switchEvery = 25   // fleet.Config default SwitchEvery: mean observations between latent switches
	perLabel    = 512  // pool vectors per emotion label
)

// traffic is a workload's generated input set. Feature vectors come from
// affect.StreamModel.Sample — perLabel vectors per emotion label, drawn
// once into a pool — and every session owns a sequence of pool rows that
// follows its latent emotion, which switches on a seeded schedule. The
// system under test only ever receives rows of this pool.
type traffic struct {
	dim  int
	pool []float64  // NumLabels*perLabel rows of dim values
	seqs [][]uint16 // per session: the pool row of its k-th observation
}

// newTraffic generates the inputs for sessions sessions of perSession
// observations each. The stream model is built from the fleet seed, so
// the fleet's matched classifier recognises the prototypes.
func newTraffic(seed int64, sessions, perSession int) (*traffic, error) {
	model, err := affect.NewStreamModel(featureDim, seed)
	if err != nil {
		return nil, err
	}
	rows := emotion.NumLabels * perLabel
	if rows > 1<<16 {
		return nil, fmt.Errorf("pool of %d rows exceeds uint16 indexing", rows)
	}
	rng := rand.New(rand.NewSource(seed ^ 0x5eed5eed))
	t := &traffic{dim: featureDim, pool: make([]float64, rows*featureDim), seqs: make([][]uint16, sessions)}
	for l := 0; l < emotion.NumLabels; l++ {
		for j := 0; j < perLabel; j++ {
			r := l*perLabel + j
			if err := model.Sample(t.row(uint16(r)), emotion.Label(l), noise, rng); err != nil {
				return nil, err
			}
		}
	}
	for s := range t.seqs {
		latent := rng.Intn(emotion.NumLabels)
		next := 1 + rng.Intn(2*switchEvery)
		seq := make([]uint16, perSession)
		for k := range seq {
			if k >= next {
				latent = rng.Intn(emotion.NumLabels)
				next = k + 1 + rng.Intn(2*switchEvery)
			}
			seq[k] = uint16(latent*perLabel + rng.Intn(perLabel))
		}
		t.seqs[s] = seq
	}
	return t, nil
}

// row returns pool row r.
func (t *traffic) row(r uint16) []float64 {
	return t.pool[int(r)*t.dim : (int(r)+1)*t.dim]
}

// obs returns session s's k-th observation. Closed-loop workloads send
// for a fixed time, not a fixed count, so a session's sequence repeats
// once exhausted.
func (t *traffic) obs(s, k int) []float64 {
	seq := t.seqs[s]
	return t.row(seq[k%len(seq)])
}
