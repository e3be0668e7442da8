package fleet

import (
	"sync/atomic"

	"affectedge/internal/obs"
)

// metrics holds one fleet's own handles (obs.Scope.NewCounter and kin),
// built by New; the per-shard ones live on the shard.
type metrics struct {
	sessions    *obs.Gauge   // current session population
	added       *obs.Counter // AddSession successes
	removed     *obs.Counter // RemoveSession successes
	ingress     *obs.Counter // live observations accepted into a queue
	disconnects *obs.Counter // sessions parked by Disconnect
	reconnects  *obs.Counter // sessions revived by Reconnect
	snapshots   *obs.Counter // session/fleet snapshots written
	restores    *obs.Counter // session/fleet restores applied
}

var wired atomic.Pointer[obs.Scope] // see WireMetrics

// WireMetrics sets the scope that fleets built by later New calls
// register their metrics under; with nil (the default) they count
// unregistered. Call before New. A new fleet's handles replace an
// earlier one's, so the scope reports the newest fleet.
func WireMetrics(s *obs.Scope) { wired.Store(s) }

func newMetrics(s *obs.Scope) metrics {
	return metrics{
		sessions:    s.NewGauge("sessions"),
		added:       s.NewCounter("sessions_added"),
		removed:     s.NewCounter("sessions_removed"),
		ingress:     s.NewCounter("ingress"),
		disconnects: s.NewCounter("disconnects"),
		reconnects:  s.NewCounter("reconnects"),
		snapshots:   s.NewCounter("snapshots"),
		restores:    s.NewCounter("restores"),
	}
}
