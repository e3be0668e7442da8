package android

import (
	"reflect"
	"testing"
	"time"
)

// TestDevicesShareCatalogIndex: every device reads one catalog index, and
// the maps CatalogByName hands out are copies — mutating one reaches no
// device.
func TestDevicesShareCatalogIndex(t *testing.T) {
	d1 := newTestDevice(t, FIFOPolicy{})
	want := CatalogByName()["chrome"].FileBytes
	m := CatalogByName()
	m["chrome"] = App{Name: "chrome", FileBytes: 1, MemBytes: 1}
	m["sideloaded"] = App{Name: "sideloaded", FileBytes: 1, MemBytes: 1}
	delete(m, "gmail")
	d2 := newTestDevice(t, FIFOPolicy{})
	if reflect.ValueOf(d1.apps).Pointer() != reflect.ValueOf(d2.apps).Pointer() {
		t.Fatal("devices hold separate catalog indexes")
	}
	for _, d := range []*Device{d1, d2} {
		if _, err := d.Launch(0, "chrome"); err != nil {
			t.Fatal(err)
		}
		if got := d.Metrics().BytesLoaded; got != want {
			t.Fatalf("chrome cold start loaded %d bytes, catalog says %d", got, want)
		}
		if _, err := d.Launch(time.Second, "gmail"); err != nil {
			t.Fatalf("deleting from a CatalogByName copy uninstalled an app: %v", err)
		}
		if _, err := d.Launch(2*time.Second, "sideloaded"); err == nil {
			t.Fatal("adding to a CatalogByName copy installed an app")
		}
	}
}

// killCycle returns a device on which killCycleStep alternates a cold
// start of chrome with a warm launch of messages that kills chrome: the
// process limit is 1 and two exempt apps (system-ui, messages) keep the
// background over it, so every demoted chrome is the one candidate.
func killCycle(tb testing.TB) *Device {
	tb.Helper()
	cfg := DefaultDeviceConfig()
	cfg.ProcessLimit = 1
	d, err := NewDevice(cfg, FIFOPolicy{})
	if err != nil {
		tb.Fatal(err)
	}
	for i, app := range []string{"system-ui", "messages"} {
		if _, err := d.Launch(time.Duration(i)*time.Second, app); err != nil {
			tb.Fatal(err)
		}
	}
	return d
}

// killCycleStep runs one cycle at virtual time 2*step seconds onwards.
func killCycleStep(tb testing.TB, d *Device, step int) {
	at := time.Duration(2*step+2) * time.Second
	for i, app := range []string{"chrome", "messages"} {
		if _, err := d.Launch(at+time.Duration(i)*time.Second, app); err != nil {
			tb.Fatal(err)
		}
	}
}

// TestKillingLaunchAllocs pins the victim search to zero allocations: a
// cycle of a cold start and a warm launch that kills allocates the cold
// start's Process and nothing else (the trace log's amortized growth
// stays under one allocation per cycle).
func TestKillingLaunchAllocs(t *testing.T) {
	d := killCycle(t)
	step := 0
	allocs := testing.AllocsPerRun(200, func() {
		killCycleStep(t, d, step)
		step++
	})
	if m := d.Metrics(); m.Kills < 200 || m.WarmStarts < 200 {
		t.Fatalf("cycle did not kill on warm launches: %+v", m)
	}
	if allocs > 1 {
		t.Fatalf("cold start + killing warm launch: %v allocs/cycle, want 1", allocs)
	}
}

// BenchmarkNewDevice prices booting a device over the shared catalog.
func BenchmarkNewDevice(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := NewDevice(DefaultDeviceConfig(), FIFOPolicy{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLaunch prices Launch: "warm" switches between two cached apps
// (no kills), "kill" runs killCycleStep (a cold start and a warm launch
// that kills), reported per launch.
func BenchmarkLaunch(b *testing.B) {
	b.Run("warm", func(b *testing.B) {
		d := newTestDevice(b, FIFOPolicy{})
		apps := []string{"chrome", "gmail"}
		for i, app := range apps {
			if _, err := d.Launch(time.Duration(i)*time.Second, app); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := d.Launch(time.Duration(i+2)*time.Second, apps[i%2]); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("kill", func(b *testing.B) {
		d := killCycle(b)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			killCycleStep(b, d, i)
		}
		b.StopTimer()
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(2*b.N), "ns/launch")
	})
}
