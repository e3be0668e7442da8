package fleet

import (
	"fmt"
	"testing"
	"time"

	"affectedge/internal/parallel"
)

// BenchmarkFleetObserve measures the shard inference stage — classifying
// every queued session observation — comparing one coalesced batched int8
// evaluation against per-session serial evaluation of the same rows. This
// is the stage sharding exists to amortize: per-evaluation setup (scratch
// sizing, scale math, layer dispatch) is paid once per batch instead of
// once per session. Results are bitwise identical either way (pinned by
// TestDeterminismBatchedVsSerial); only throughput differs.
func BenchmarkFleetObserve(b *testing.B) {
	for _, mode := range []struct {
		name   string
		serial bool
	}{
		{"coalesced", false},
		{"serial", true},
	} {
		for _, rows := range []int{16, 128} {
			b.Run(fmt.Sprintf("%s/rows=%d", mode.name, rows), func(b *testing.B) {
				f, err := New(Config{
					Sessions: rows, // one shard: rows sessions per batch
					Shards:   1,
					Seed:     1,
				})
				if err != nil {
					b.Fatal(err)
				}
				if mode.serial {
					serialInfer(f)
				}
				sh := f.shards[0]
				// Pre-synthesize the shard's feature matrix once; the
				// benchmark then times classification alone.
				dim := FeatureDim
				sh.feat = grow(sh.feat, rows*dim)
				for k, s := range sh.order {
					if err := f.stream.Sample(sh.feat[k*dim:(k+1)*dim], s.latent, noise, s.src); err != nil {
						b.Fatal(err)
					}
				}
				sh.xq = grow(sh.xq, rows*dim)
				f.model.QuantizeInput(sh.xq, sh.feat)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := sh.infer(0, rows); err != nil {
						b.Fatal(err)
					}
				}
				b.StopTimer()
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*rows), "ns/observation")
			})
		}
	}
}

// BenchmarkFleetTick prices the full observation round per session —
// synthesis, classification, hysteresis control, launch schedule — at one
// parallel worker, the end-to-end cost a capacity plan would use.
func BenchmarkFleetTick(b *testing.B) {
	defer parallel.SetWorkers(parallel.SetWorkers(1))
	for _, sessions := range []int{64, 512} {
		b.Run(fmt.Sprintf("sessions=%d", sessions), func(b *testing.B) {
			f, err := New(Config{Sessions: sessions, Shards: 4, Seed: 1})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// Drive shard ticks directly: RunTicks would fold the
				// O(sessions) stats snapshot into every iteration.
				for _, sh := range f.shards {
					if err := sh.tick(i); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*sessions), "ns/observation")
		})
	}
}

// BenchmarkFleetStats prices the aggregate snapshot at population scale.
func BenchmarkFleetStats(b *testing.B) {
	f, err := New(Config{Sessions: 2000, Shards: 8, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if f.Stats().Sessions != 2000 {
			b.Fatal("bad snapshot")
		}
	}
}

// BenchmarkFleetObserveBatch prices live submission inside the fleet: one
// 64-item ObserveBatch (one grouped request) plus the shard worker's
// coalesce of it — admission, gather, int8 inference, and apply — run in
// the caller's goroutine. Steady state allocates nothing (pinned by
// TestObserveBatchAdmissionAllocs).
func BenchmarkFleetObserveBatch(b *testing.B) {
	const rows = 64
	f, err := New(Config{Sessions: rows, Shards: 1, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	dim := f.FeatureDim()
	items := make([]Obs, rows)
	for k := range items {
		x := make([]float64, dim)
		for j := range x {
			x[j] = 0.125 * float64((k+j)%7)
		}
		items[k] = Obs{ID: k, X: x}
	}
	statuses := make([]error, rows)
	sh := f.shards[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for k := range items {
			items[k].At = time.Duration(i+1) * time.Millisecond
		}
		if err := f.ObserveBatch(items, statuses); err != nil {
			b.Fatal(err)
		}
		sh.coalesce(<-sh.queue)
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*rows), "ns/observation")
}
