package affectedge

import (
	"fmt"
	"io"
	"os"

	"affectedge/internal/affect"
	"affectedge/internal/android"
	"affectedge/internal/core"
	"affectedge/internal/fleet"
	"affectedge/internal/h264"
	"affectedge/internal/nn"
	"affectedge/internal/obs"
	"affectedge/internal/stream"
)

// MetricsRegistry owns the library's named metrics. See internal/obs for
// the metric model: atomic counters/gauges, fixed-bucket histograms,
// deterministic sorted snapshots.
type MetricsRegistry = obs.Registry

// NewMetricsRegistry returns an empty registry ready for WireMetrics.
func NewMetricsRegistry() *MetricsRegistry { return obs.NewRegistry() }

// WireMetrics routes every subsystem's instrumentation into reg under the
// scopes affect, nn, h264, core, android, fleet, and stream. Pass nil to
// unwire (the default state): unwired instrumentation is a nil-check and
// costs nothing.
//
// Wire before starting work — handle swaps are not synchronized with
// running studies, decodes, or simulations, and a fleet registers its
// own handles under the fleet scope when fleet.New builds it. All metric
// updates themselves are concurrency-safe and allocation-free.
func WireMetrics(reg *MetricsRegistry) {
	affect.WireMetrics(reg.Scope("affect"))
	nn.WireMetrics(reg.Scope("nn"))
	h264.WireMetrics(reg.Scope("h264"))
	core.WireMetrics(reg.Scope("core"))
	android.WireMetrics(reg.Scope("android"))
	fleet.WireMetrics(reg.Scope("fleet"))
	stream.WireMetrics(reg.Scope("stream"))
}

// DumpMetrics writes reg's snapshot as indented JSON to path; "-" writes
// to stdout.
func DumpMetrics(reg *MetricsRegistry, path string) error {
	if path == "-" {
		return reg.WriteJSON(os.Stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("affectedge: metrics dump: %w", err)
	}
	if err := reg.WriteJSON(f); err != nil {
		f.Close()
		return fmt.Errorf("affectedge: metrics dump: %w", err)
	}
	return f.Close()
}

// WriteMetrics writes reg's snapshot as indented JSON to w.
func WriteMetrics(reg *MetricsRegistry, w io.Writer) error { return reg.WriteJSON(w) }
