package affectedge

import (
	"strings"
	"testing"

	"affectedge/internal/fleet"
	"affectedge/internal/stream"
)

// TestWireMetricsStreamScope checks the stream FIFO family reaches the
// public registry: after WireMetrics, FIFO traffic lands under "stream."
// names in the JSON dump, and unwiring restores the nop path. A fleet
// registers its "fleet." handles when it is built, not at wiring.
func TestWireMetricsStreamScope(t *testing.T) {
	reg := NewMetricsRegistry()
	WireMetrics(reg)
	defer WireMetrics(nil)
	if _, err := fleet.New(fleet.Config{Sessions: 1}); err != nil {
		t.Fatal(err)
	}

	q, err := stream.New[int](4)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if err := q.TryPush(i); err != nil {
			t.Fatal(err)
		}
	}
	if err := q.TryPush(99); err == nil {
		t.Fatal("full ring accepted a push")
	}

	var sb strings.Builder
	if err := WriteMetrics(reg, &sb); err != nil {
		t.Fatal(err)
	}
	dump := sb.String()
	for _, name := range []string{
		"stream.queue_depth_high",
		"stream.backpressure",
		"stream.stalls",
		"stream.occupancy",
	} {
		if !strings.Contains(dump, name) {
			t.Errorf("metrics dump missing %q", name)
		}
	}
	if !strings.Contains(dump, "fleet.") {
		t.Error("fleet scope missing from dump")
	}
}
