package fleet

import (
	"errors"
	"math/rand"
	"sync"
	"testing"
	"time"
)

// TestStressConcurrentServing hammers the live path from many goroutines —
// observations, app launches, session churn, and stats snapshots all while
// the shard workers drain — then closes the fleet mid-traffic. Run under
// `make test-race` this is the shard-map/coalescer race check; without
// -race it still verifies the accounting invariant that every accepted
// observation is either applied or counted as a late drop.
func TestStressConcurrentServing(t *testing.T) {
	cfg := Config{Sessions: 32, Shards: 4, QueueDepth: 128, MaxBatch: 16}
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Start(); err != nil {
		t.Fatal(err)
	}

	var accepted sync.WaitGroup // not a counter: just the goroutine join
	var mu sync.Mutex
	var sent int64

	const (
		observers = 8
		perObs    = 400
		churners  = 2
	)
	stopChurn := make(chan struct{})

	for g := 0; g < observers; g++ {
		accepted.Add(1)
		go func(g int) {
			defer accepted.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			x := make([]float64, FeatureDim)
			var mine int64
			for i := 0; i < perObs; i++ {
				id := rng.Intn(cfg.Sessions)
				for j := range x {
					x[j] = rng.NormFloat64()
				}
				err := observe(f, id, time.Duration(i+1)*time.Millisecond, x)
				switch {
				case err == nil:
					mine++
				case errors.Is(err, ErrBackpressure):
					time.Sleep(50 * time.Microsecond)
				case errors.Is(err, ErrClosed):
					return
				default:
					// Unknown-session errors are expected during churn.
				}
				if i%64 == 0 {
					_ = f.Stats()
					if id%2 == 0 {
						_, _ = f.Launch(id, time.Duration(i+1)*time.Millisecond, "chrome")
					}
				}
			}
			mu.Lock()
			sent += mine
			mu.Unlock()
		}(g)
	}

	// Churners add and remove a disjoint id range so observers' ids stay
	// mostly valid while the shard maps mutate constantly.
	var churn sync.WaitGroup
	for g := 0; g < churners; g++ {
		churn.Add(1)
		go func(g int) {
			defer churn.Done()
			base := 1000 + g*1000
			for i := 0; ; i++ {
				select {
				case <-stopChurn:
					return
				default:
				}
				id := base + i%50
				if err := f.AddSession(id); err != nil && !errors.Is(err, ErrClosed) {
					_ = f.RemoveSession(id)
				}
			}
		}(g)
	}

	accepted.Wait()
	close(stopChurn)
	churn.Wait()
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	// Idempotent close, including concurrently-observable state.
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	st := f.Stats()
	if st.Observations+st.LateDrops != sent {
		t.Fatalf("accepted %d but applied %d + late-dropped %d", sent, st.Observations, st.LateDrops)
	}
	if st.Batches == 0 || st.BatchRows != st.Observations {
		t.Fatalf("batch accounting off: %+v vs %d applied", st, st.Observations)
	}
	if st.MaxBatchRows > 16 {
		t.Fatalf("coalesced %d rows, MaxBatch is 16", st.MaxBatchRows)
	}
}

// TestStressCloseDuringTraffic closes the fleet while observers are still
// sending: Close must drain without losing accepted observations and
// subsequent sends must fail cleanly with ErrClosed.
func TestStressCloseDuringTraffic(t *testing.T) {
	cfg := Config{Sessions: 16, Shards: 4, QueueDepth: 256}
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Start(); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	var mu sync.Mutex
	var sent int64
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			x := make([]float64, FeatureDim)
			var mine int64
			for i := 0; ; i++ {
				err := observe(f, i%cfg.Sessions, time.Duration(i+1)*time.Microsecond, x)
				if errors.Is(err, ErrClosed) {
					break
				}
				if err == nil {
					mine++
				}
			}
			mu.Lock()
			sent += mine
			mu.Unlock()
		}(g)
	}
	time.Sleep(5 * time.Millisecond)
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if st := f.Stats(); st.Observations != sent {
		t.Fatalf("accepted %d, applied %d — Close lost queued work", sent, st.Observations)
	}
}
