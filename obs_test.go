package affectedge

import (
	"strings"
	"testing"

	"affectedge/internal/fleet"
)

// TestWireMetricsFleetScope checks a fleet built after WireMetrics lands
// its handles under "fleet." names in the public registry's JSON dump: a
// fleet registers them when it is built, not at wiring.
func TestWireMetricsFleetScope(t *testing.T) {
	reg := NewMetricsRegistry()
	WireMetrics(reg)
	defer WireMetrics(nil)
	if _, err := fleet.New(fleet.Config{Sessions: 1}); err != nil {
		t.Fatal(err)
	}

	var sb strings.Builder
	if err := WriteMetrics(reg, &sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "fleet.") {
		t.Error("fleet scope missing from dump")
	}
}
