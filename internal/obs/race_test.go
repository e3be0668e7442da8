package obs

import (
	"runtime"
	"sync"
	"testing"
)

// TestRegistryConcurrent is the -race stress test for the registry: many
// goroutines hammer Inc/Add/Observe/SetMax on shared handles — and keep
// registering (get-or-create races) — while a snapshotter reads
// concurrently. Final totals are checked exactly, so this also catches
// lost updates, not just data races. `make test-race` covers it via
// `go test -race ./...`.
func TestRegistryConcurrent(t *testing.T) {
	const (
		perG = 2000
		maxV = 1000
	)
	workers := runtime.GOMAXPROCS(0) * 2
	if workers < 4 {
		workers = 4
	}
	r := NewRegistry()
	c := r.Counter("stress.count")
	g := r.Gauge("stress.hw")
	h := r.Histogram("stress.values", []int64{100, 250, 500, 900})

	var wg sync.WaitGroup
	stop := make(chan struct{})
	// Concurrent snapshotter: snapshots during updates must stay readable
	// (sorted, fixed bucket shapes); exact totals are checked at the end.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			snap := r.Snapshot()
			if hs, ok := snap.Histogram("stress.values"); ok && len(hs.Counts) != 5 {
				t.Errorf("snapshot bucket shape %d, want 5", len(hs.Counts))
				return
			}
		}
	}()

	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				c.Inc()
				v := int64((w*perG + i) % maxV)
				h.Observe(v)
				g.SetMax(v)
				// Get-or-create race: everyone asks for the same names.
				r.Counter("stress.count").Add(0)
				r.Histogram("stress.values", []int64{100, 250, 500, 900})
				// Owned registration races snapshots and other owners.
				r.Scope("stress").NewCounter("owned").Inc()
			}
		}(w)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				c.Add(1)
			}
		}()
	}
	// Wait for the workers (all but the snapshotter), then stop it.
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	// Signal the snapshotter once worker counts are final: workers hold
	// 2*workers wg slots plus the snapshotter's one; simplest is to wait
	// on the exact totals below after closing stop once counters settle.
	for c.Value() < int64(2*workers*perG) {
		runtime.Gosched()
	}
	close(stop)
	<-done

	if got, want := c.Value(), int64(2*workers*perG); got != want {
		t.Fatalf("counter = %d, want %d (lost updates)", got, want)
	}
	if got := h.Count(); got != int64(workers*perG) {
		t.Fatalf("histogram count = %d, want %d", got, int64(workers*perG))
	}
	if got := g.Value(); got != maxV-1 {
		t.Fatalf("high-water gauge = %d, want %d", got, maxV-1)
	}
	snap, _ := r.Snapshot().Histogram("stress.values")
	var total int64
	for _, n := range snap.Counts {
		total += n
	}
	if total != snap.Count {
		t.Fatalf("final bucket total %d != count %d", total, snap.Count)
	}
}
