package fleet

import (
	"sync/atomic"

	"affectedge/internal/obs"
)

// metrics holds one fleet's own handles (obs.Scope.NewCounter and kin),
// built by New; the per-shard ones live on the shard.
type metrics struct {
	sessions     *obs.Gauge     // current session population
	added        *obs.Counter   // AddSession successes
	removed      *obs.Counter   // RemoveSession successes
	ingress      *obs.Counter   // live observations accepted into a queue
	batches      *obs.Counter   // inference rounds (batched or serial)
	batchRows    *obs.Histogram // rows coalesced per inference round
	videoDecodes *obs.Counter   // per-session probe clip decodes
	disconnects  *obs.Counter   // sessions parked by Disconnect
	reconnects   *obs.Counter   // sessions revived by Reconnect
	snapshots    *obs.Counter   // session/shard/fleet snapshots written
	restores     *obs.Counter   // session/shard/fleet restores applied
}

var wired atomic.Pointer[obs.Scope] // see WireMetrics

// WireMetrics sets the scope that fleets built by later New calls
// register their metrics under; with nil (the default) they count
// unregistered. Call before New. A new fleet's handles replace an
// earlier one's, so the scope reports the newest fleet.
func WireMetrics(s *obs.Scope) { wired.Store(s) }

func newMetrics(s *obs.Scope) metrics {
	return metrics{
		sessions:     s.NewGauge("sessions"),
		added:        s.NewCounter("sessions_added"),
		removed:      s.NewCounter("sessions_removed"),
		ingress:      s.NewCounter("ingress"),
		batches:      s.NewCounter("batches"),
		batchRows:    s.NewHistogram("batch_rows", obs.ExponentialBuckets(1, 2, 10)),
		videoDecodes: s.NewCounter("video_decodes"),
		disconnects:  s.NewCounter("disconnects"),
		reconnects:   s.NewCounter("reconnects"),
		snapshots:    s.NewCounter("snapshots"),
		restores:     s.NewCounter("restores"),
	}
}
