package server

import (
	"sync/atomic"

	"affectedge/internal/obs"
)

// metrics holds one server's own handles (obs.Scope.NewCounter), built
// by New and read back by Counters, each named as its Counters JSON tag.
type metrics struct {
	conns          *obs.Gauge   // currently open connections
	connsTotal     *obs.Counter // connections ever accepted
	hellos         *obs.Counter // authenticated connections
	helloRefused   *obs.Counter // HELLOs refused with an ERR
	framesIn       *obs.Counter // complete frames decoded off sockets
	framesOut      *obs.Counter // reply frames written
	accepted       *obs.Counter // observations the fleet accepted
	nacked         *obs.Counter // backpressure NACKs sent
	rejected       *obs.Counter // observations refused with a kept connection
	batchesIn      *obs.Counter // OBSERVE_BATCH frames dispatched
	batchObs       *obs.Counter // observations carried by OBSERVE_BATCH frames
	flushes        *obs.Counter // vectored reply flushes (one writev per flush)
	snapshotReqs   *obs.Counter // session snapshots served over TCP
	slowKills      *obs.Counter // connections killed for unread replies
	midFrame       *obs.Counter // peers gone with a partial frame buffered
	acceptErrors   *obs.Counter // transient listener Accept failures
	readErrors     *obs.Counter // connections ended by a read error
	writeErrors    *obs.Counter // connections ended by a write error/timeout
	protocolErrors *obs.Counter // malformed or out-of-protocol frames
}

var wired atomic.Pointer[obs.Scope] // see WireMetrics

// WireMetrics sets the scope that servers built by later New calls
// register their counters under, for the /metrics plane; with nil (the
// default) they count unregistered. Call before New. A new server's
// handles replace an earlier one's. Deliberately NOT wired by the
// affectedge.WireMetrics facade: pulling the serving layer into every
// binary's metric surface would drag net-facing concerns into offline
// tools — cmd/fleetload (and any other serving binary) calls
// server.WireMetrics explicitly.
func WireMetrics(s *obs.Scope) { wired.Store(s) }

func newMetrics(s *obs.Scope) metrics {
	return metrics{
		conns:          s.NewGauge("conns"),
		connsTotal:     s.NewCounter("conns_total"),
		hellos:         s.NewCounter("hellos"),
		helloRefused:   s.NewCounter("hello_refused"),
		framesIn:       s.NewCounter("frames_in"),
		framesOut:      s.NewCounter("frames_out"),
		accepted:       s.NewCounter("accepted"),
		nacked:         s.NewCounter("nacked"),
		rejected:       s.NewCounter("rejected"),
		batchesIn:      s.NewCounter("batches_in"),
		batchObs:       s.NewCounter("batch_obs"),
		flushes:        s.NewCounter("flushes"),
		snapshotReqs:   s.NewCounter("snapshot_reqs"),
		slowKills:      s.NewCounter("slow_kills"),
		midFrame:       s.NewCounter("mid_frame_resets"),
		acceptErrors:   s.NewCounter("accept_errors"),
		readErrors:     s.NewCounter("read_errors"),
		writeErrors:    s.NewCounter("write_errors"),
		protocolErrors: s.NewCounter("protocol_errors"),
	}
}
