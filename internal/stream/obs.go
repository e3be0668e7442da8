package stream

import "affectedge/internal/obs"

// metrics holds the package's zero-allocation instrument handles. All
// handles are nil until WireMetrics runs; every obs method is a no-op on a
// nil receiver, so unwired FIFOs pay a single predictable branch per
// operation (the same contract every kernel package follows).
//
// The family is package-wide, not per-FIFO: the live user is the ingest
// server's reply queue, one FIFO per connection, and per-instance
// instruments would allocate on every connection setup and grow the
// registry with the connection count. Per-queue peaks remain observable
// through FIFO.Peak.
type metrics struct {
	depth        *obs.Gauge     // queue_depth_high: high-water occupancy across all FIFOs
	stalls       *obs.Counter   // blocking waits entered (producer full + consumer empty)
	backpressure *obs.Counter   // non-blocking writes refused or truncated by a full ring
	occupancy    *obs.Histogram // ring occupancy observed at each accepted write
}

var mtr metrics

// WireMetrics attaches the stream package to an observability scope. Pass
// a nil scope to unwire. Not synchronized with running pipelines — wire
// before starting work.
func WireMetrics(s *obs.Scope) {
	mtr.depth = s.Gauge("queue_depth_high")
	mtr.stalls = s.Counter("stalls")
	mtr.backpressure = s.Counter("backpressure")
	mtr.occupancy = s.Histogram("occupancy", obs.ExponentialBuckets(1, 2, 12))
}
