package fleet

import (
	"encoding/binary"
	"errors"
	"math"
	"testing"
	"time"

	"affectedge/internal/nn"
	"affectedge/internal/obs"
)

// observe submits one observation through a one-item ObserveBatch and
// returns its verdict, or the call's own error (ErrClosed).
func observe(f *Fleet, id int, at time.Duration, x []float64) error {
	statuses := []error{nil}
	if err := f.ObserveBatch([]Obs{{ID: id, At: at, X: x}}, statuses); err != nil {
		return err
	}
	return statuses[0]
}

// serialInfer swaps f's batched classifier call for one single-row
// evaluation per row. The int8 kernels accumulate in exact integer
// arithmetic, so every result must be bitwise identical to the batched
// call; only throughput differs.
func serialInfer(f *Fleet) {
	dim, classes := f.cfg.FeatureDim, len(f.stream.Protos)
	f.inferBatch = func(s *nn.QScratch, x []float64, m int, out []float64) error {
		for k := 0; k < m; k++ {
			if err := f.model.InferBatch(s, x[k*dim:(k+1)*dim], 1, out[k*classes:(k+1)*classes]); err != nil {
				return err
			}
		}
		return nil
	}
}

// TestObserveBatchEquivalence pins grouped submission against one-item
// submission: the same seeded traffic queued as one ObserveBatch call per
// round (grouped requests, one enqueue per same-shard run) and as one-item
// ObserveBatch calls (one enqueue per observation) must drain to identical
// fingerprints. MaxBatch is pinned to 1, so inference rounds are
// timing-independent and a grouped request's rows are classified exactly
// like singles; inference runs row at a time on both sides.
func TestObserveBatchEquivalence(t *testing.T) {
	const (
		sessions = 8
		shards   = 2
		rounds   = 16
	)
	cfg := Config{
		Sessions:   sessions,
		Shards:     shards,
		Seed:       42,
		QueueDepth: sessions * rounds, // no-drop sizing
		MaxBatch:   1,
	}
	run := func(batched bool) string {
		f, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		serialInfer(f)
		dim := f.FeatureDim()
		x := make([]float64, dim)
		for k := range x {
			x[k] = 0.25 * float64(k%5)
		}
		// Queue everything before Start so drain order per session is the
		// submission order in both modes.
		for i := 0; i < rounds; i++ {
			at := time.Duration(i+1) * time.Second
			if batched {
				items := make([]Obs, sessions)
				statuses := make([]error, sessions)
				for id := 0; id < sessions; id++ {
					items[id] = Obs{ID: id, At: at, X: x}
				}
				if err := f.ObserveBatch(items, statuses); err != nil {
					t.Fatal(err)
				}
				for id, st := range statuses {
					if st != nil {
						t.Fatalf("round %d session %d: %v", i, id, st)
					}
				}
			} else {
				for id := 0; id < sessions; id++ {
					if err := observe(f, id, at, x); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		if err := f.Start(); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		st := f.Stats()
		if want := int64(sessions * rounds); st.Observations != want {
			t.Fatalf("batched=%v: observations %d, want %d", batched, st.Observations, want)
		}
		if st.Drops != 0 || st.LateDrops != 0 {
			t.Fatalf("batched=%v: drops %d late %d, want 0", batched, st.Drops, st.LateDrops)
		}
		return st.Fingerprint()
	}
	if single, batch := run(false), run(true); single != batch {
		t.Fatalf("fingerprint divergence:\none-item %s\ngrouped  %s", single, batch)
	}
}

// TestObserveBatchStatuses pins the per-item verdict contract: invalid
// items fail individually (dimension, unknown session), valid items past
// the queue's free space NACK with ErrBackpressure, and neither failure
// class poisons the rest of the batch.
func TestObserveBatchStatuses(t *testing.T) {
	reg := obs.NewRegistry()
	WireMetrics(reg.Scope("fleet"))
	defer WireMetrics(nil)
	cfg := Config{Sessions: 2, Shards: 1, QueueDepth: 4}
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dim := f.FeatureDim()
	x := make([]float64, dim)

	if err := f.ObserveBatch(make([]Obs, 3), make([]error, 2)); err == nil {
		t.Fatal("statuses length mismatch accepted")
	}

	// No Start: the queue only fills. Depth 4 ⇒ items 5.. of the valid
	// run NACK. The batch interleaves two failure items up front.
	items := make([]Obs, 0, 8)
	items = append(items, Obs{ID: 0, At: time.Second, X: x[:3]}) // bad dim
	items = append(items, Obs{ID: 99, At: time.Second, X: x})    // unknown session
	for i := 0; i < 6; i++ {
		items = append(items, Obs{ID: i % 2, At: time.Duration(i+1) * time.Second, X: x})
	}
	statuses := make([]error, len(items))
	if err := f.ObserveBatch(items, statuses); err != nil {
		t.Fatal(err)
	}
	if statuses[0] == nil || errors.Is(statuses[0], ErrBackpressure) {
		t.Errorf("bad-dim status = %v, want a dimension error", statuses[0])
	}
	if !errors.Is(statuses[1], ErrUnknownSession) {
		t.Errorf("unknown-session status = %v, want ErrUnknownSession", statuses[1])
	}
	var acked, nacked int
	for _, st := range statuses[2:] {
		switch {
		case st == nil:
			acked++
		case errors.Is(st, ErrBackpressure):
			nacked++
		default:
			t.Fatalf("unexpected status %v", st)
		}
	}
	if acked != 4 || nacked != 2 {
		t.Fatalf("acked %d nacked %d, want 4 and 2 (depth-4 queue)", acked, nacked)
	}
	st := f.Stats()
	if st.Drops != 2 {
		t.Errorf("stats drops %d, want 2", st.Drops)
	}
	snap := reg.Snapshot()
	if got := snap.Counter("fleet.ingress"); got != 4 {
		t.Errorf("fleet.ingress %d, want 4", got)
	}
	if got := snap.Counter("fleet.shard00.drops"); got != 2 {
		t.Errorf("fleet.shard00.drops %d, want 2", got)
	}

	// Draining applies exactly the admitted items.
	if err := f.Start(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if got := f.Stats().Observations; got != 4 {
		t.Errorf("observations %d after drain, want 4", got)
	}

	// After Close every status is ErrClosed and the call reports it.
	statuses = make([]error, 1)
	if err := f.ObserveBatch([]Obs{{ID: 0, At: time.Second, X: x}}, statuses); !errors.Is(err, ErrClosed) {
		t.Fatalf("ObserveBatch after Close: %v, want ErrClosed", err)
	}
	if !errors.Is(statuses[0], ErrClosed) {
		t.Fatalf("status after Close: %v, want ErrClosed", statuses[0])
	}
}

// TestObserveBatchBadValue pins the value-domain check: an item carrying
// a NaN or ±Inf feature fails alone with ErrBadValue, its neighbours in
// the same run are admitted, and only those are applied.
func TestObserveBatchBadValue(t *testing.T) {
	f, err := New(Config{Sessions: 2, Shards: 1, QueueDepth: 8})
	if err != nil {
		t.Fatal(err)
	}
	dim := f.FeatureDim()
	row := func(bad float64, at int) Obs {
		x := make([]float64, dim)
		x[dim-1-at%dim] = bad
		return Obs{ID: at % 2, At: time.Duration(at) * time.Second, X: x}
	}
	items := []Obs{row(0.5, 1), row(math.NaN(), 2), row(math.Inf(1), 3), row(-1, 4), row(math.Inf(-1), 5), row(2, 6)}
	statuses := make([]error, len(items))
	if err := f.ObserveBatch(items, statuses); err != nil {
		t.Fatal(err)
	}
	for i, st := range statuses {
		if bad := i == 1 || i == 2 || i == 4; bad != errors.Is(st, ErrBadValue) || (!bad && st != nil) {
			t.Errorf("item %d: status %v", i, st)
		}
	}
	if err := f.Start(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if st := f.Stats(); st.Observations != 3 || st.Drops != 0 {
		t.Errorf("observations %d drops %d, want 3 and 0", st.Observations, st.Drops)
	}
}

// TestObserveBatchOversizedRun feeds one grouped run bigger than MaxBatch
// through a single shard: the worker must cut it into MaxBatch-row
// inference rounds, so every admitted observation is applied and the
// max-batch envelope holds.
func TestObserveBatchOversizedRun(t *testing.T) {
	const n = 40
	cfg := Config{Sessions: 1, Shards: 1, QueueDepth: n, MaxBatch: 8}
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, f.FeatureDim())
	items := make([]Obs, n)
	for i := range items {
		items[i] = Obs{ID: 0, At: time.Duration(i+1) * time.Second, X: x}
	}
	statuses := make([]error, n)
	if err := f.ObserveBatch(items, statuses); err != nil {
		t.Fatal(err)
	}
	for i, st := range statuses {
		if st != nil {
			t.Fatalf("item %d: %v", i, st)
		}
	}
	if err := f.Start(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	st := f.Stats()
	if st.Observations != n {
		t.Errorf("observations %d, want %d", st.Observations, n)
	}
	if st.MaxBatchRows > 8 {
		t.Errorf("max batch rows %d exceeds MaxBatch 8", st.MaxBatchRows)
	}
	if st.Batches < n/8 {
		t.Errorf("batches %d, want at least %d MaxBatch-row rounds", st.Batches, n/8)
	}
}

// TestObserveBatchAdmissionAllocs pins the request free list: once the
// shard pool is warm, admitting a grouped run and draining it through the
// coalescer allocates nothing — the ids/timestamps/features backing is
// reused, not rebuilt per call.
func TestObserveBatchAdmissionAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops recycled items at random under -race")
	}
	f, err := New(Config{Sessions: 8, Shards: 1, QueueDepth: 4})
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, f.FeatureDim())
	items := make([]Obs, 64)
	for i := range items {
		items[i] = Obs{ID: i % 8, At: time.Duration(i+1) * time.Millisecond, X: x}
	}
	statuses := make([]error, len(items))
	sh := f.shards[0]
	round := func() {
		if err := f.ObserveBatch(items, statuses); err != nil {
			t.Fatal(err)
		}
		sh.coalesce(<-sh.queue)
	}
	round() // warm the pool and the shard's inference scratch
	if allocs := testing.AllocsPerRun(100, round); allocs != 0 {
		t.Fatalf("steady-state admission: %.2f allocs per 64-item batch, want 0", allocs)
	}
}

// fuzzMaxRows bounds one FuzzObserveBatchValues input; with QueueDepth
// above it no item can be NACKed, so every status is a value verdict.
const fuzzMaxRows = 32

// FuzzObserveBatchValues drives arbitrary float64 bit patterns through
// admission and the live shard workers. Each 8 bytes of input are one
// little-endian feature value, laid row-major into at most fuzzMaxRows
// observations (a short last row is zero-padded) spread over the sessions
// of a started fleet. The contract under fuzz is the one the panics in
// shard.coalesce rely on: admission refuses exactly the rows holding a
// NaN or ±Inf (ErrBadValue), every admitted row — ±MaxFloat64, subnormals
// and ±0 included — is classified and applied without a worker panic,
// and after Close the fleet reports exactly the admitted observations.
func FuzzObserveBatchValues(fz *testing.F) {
	const dim = 24 // Config.FeatureDim default
	word := func(vs ...float64) []byte {
		b := make([]byte, 0, 8*len(vs))
		for _, v := range vs {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
		return b
	}
	fz.Add([]byte{})
	fz.Add(word(math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64, 0, math.Copysign(0, -1)))
	fz.Add(word(math.NaN(), math.Inf(1), math.Inf(-1)))
	specials := make([]float64, 3*dim)
	for i := range specials {
		specials[i] = []float64{math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64, 1}[i%4]
	}
	specials[dim+5] = math.NaN() // only the middle row is refused
	fz.Add(word(specials...))
	fz.Fuzz(func(t *testing.T, data []byte) {
		words := len(data) / 8
		rows := max(1, min((words+dim-1)/dim, fuzzMaxRows))
		f, err := New(Config{Sessions: 4, Shards: 2, QueueDepth: 2 * fuzzMaxRows})
		if err != nil {
			t.Fatal(err)
		}
		if f.FeatureDim() != dim {
			t.Fatalf("feature dim %d, want %d", f.FeatureDim(), dim)
		}
		if err := f.Start(); err != nil {
			t.Fatal(err)
		}
		xs := make([]float64, rows*dim)
		for i := range xs {
			if i < words {
				xs[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[8*i:]))
			}
		}
		items := make([]Obs, rows)
		for r := range items {
			items[r] = Obs{ID: r % 4, At: time.Duration(r+1) * time.Second, X: xs[r*dim : (r+1)*dim]}
		}
		statuses := make([]error, rows)
		if err := f.ObserveBatch(items, statuses); err != nil {
			t.Fatal(err)
		}
		var accepted int64
		for r, st := range statuses {
			switch {
			case finite(items[r].X) && st == nil:
				accepted++
			case !finite(items[r].X) && errors.Is(st, ErrBadValue):
			default:
				t.Errorf("row %d (finite %v): status %v", r, finite(items[r].X), st)
			}
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		if got := f.Stats().Observations; got != accepted {
			t.Fatalf("observations %d, want the %d accepted", got, accepted)
		}
	})
}
