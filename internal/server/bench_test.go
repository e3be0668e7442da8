package server

import (
	"fmt"
	"testing"
	"time"

	"affectedge/internal/fleet"
)

// BenchmarkLoopbackObserve measures one client's observation round trip
// over loopback TCP at BatchConfig{BatchSize: 1, Window: 1} — one
// observation per frame, each ObserveQueued waiting out the previous
// frame's reply: encode, kernel round trip, server decode+dispatch,
// ACK_BATCH back — the per-observation serving overhead the wire adds on
// top of fleet.ObserveBatch.
func BenchmarkLoopbackObserve(b *testing.B) {
	f, err := fleet.New(fleet.Config{Sessions: 1, Shards: 1, Seed: 1, QueueDepth: 4096})
	if err != nil {
		b.Fatal(err)
	}
	if err := f.Start(); err != nil {
		b.Fatal(err)
	}
	srv := New(f, Config{})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer func() {
		srv.Close()
		f.Close()
	}()
	cli, err := Dial(addr.String(), 0, f.FeatureDim(), 10*time.Second)
	if err != nil {
		b.Fatal(err)
	}
	defer cli.Close()
	cli.StartBatching(BatchConfig{BatchSize: 1, Window: 1})
	vals := make([]float64, f.FeatureDim())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := cli.ObserveQueued(time.Duration(i+1)*time.Microsecond, vals); err != nil {
			b.Fatal(err)
		}
	}
	if err := cli.Flush(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkLoopbackObserveBatch measures the amortized per-observation
// cost of the pipelined batching path at several frame sizes: ns/op is
// one observation's share of its OBSERVE_BATCH round trip, with up to 4
// frames in flight. Compare against BenchmarkLoopbackObserve (one
// observation per frame, one frame in flight) for the coalescing win.
func BenchmarkLoopbackObserveBatch(b *testing.B) {
	for _, batch := range []int{8, 64} {
		b.Run(fmt.Sprintf("batch=%d", batch), func(b *testing.B) {
			f, err := fleet.New(fleet.Config{Sessions: 1, Shards: 1, Seed: 1, QueueDepth: 8192})
			if err != nil {
				b.Fatal(err)
			}
			if err := f.Start(); err != nil {
				b.Fatal(err)
			}
			srv := New(f, Config{})
			addr, err := srv.Listen("127.0.0.1:0")
			if err != nil {
				b.Fatal(err)
			}
			defer func() {
				srv.Close()
				f.Close()
			}()
			cli, err := Dial(addr.String(), 0, f.FeatureDim(), 10*time.Second)
			if err != nil {
				b.Fatal(err)
			}
			defer cli.Close()
			cli.StartBatching(BatchConfig{BatchSize: batch, Window: 4})
			vals := make([]float64, f.FeatureDim())
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := cli.ObserveQueued(time.Duration(i+1)*time.Microsecond, vals); err != nil {
					b.Fatal(err)
				}
			}
			if err := cli.Flush(); err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			acked, _, _ := cli.BatchStats()
			if acked != int64(b.N) {
				b.Fatalf("acked %d, want %d", acked, b.N)
			}
		})
	}
}

// BenchmarkLoadgen16 measures aggregate loopback throughput with 16
// concurrent sessions sending one observation per frame (Batch 1, the
// default window of 4 frames in flight) — the obs/sec figure
// cmd/fleetload reports, in benchmark form.
func BenchmarkLoadgen16(b *testing.B) {
	const sessions = 16
	f, err := fleet.New(fleet.Config{Sessions: sessions, Shards: 4, Seed: 1, QueueDepth: 4096})
	if err != nil {
		b.Fatal(err)
	}
	if err := f.Start(); err != nil {
		b.Fatal(err)
	}
	srv := New(f, Config{})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer func() {
		srv.Close()
		f.Close()
	}()
	obs := b.N/sessions + 1
	b.ReportAllocs()
	b.ResetTimer()
	res, err := RunLoad(LoadConfig{
		Addr: addr.String(), Sessions: sessions, Obs: obs,
		Dim: f.FeatureDim(), Batch: 1, Seed: 3,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	if res.Acked != int64(sessions*obs) {
		b.Fatalf("acked %d, want %d", res.Acked, sessions*obs)
	}
}
