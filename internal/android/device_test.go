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

// killCycle returns a device, booted by boot, on which killCycleStep
// alternates a cold start of chrome with a warm launch of messages that
// kills chrome: the process limit is 1 and two exempt apps (system-ui,
// messages) keep the background over it, so every demoted chrome is the
// one candidate.
func killCycle(tb testing.TB, boot func(DeviceConfig, KillPolicy) (*Device, error)) *Device {
	tb.Helper()
	cfg := DefaultDeviceConfig()
	cfg.ProcessLimit = 1
	d, err := boot(cfg, FIFOPolicy{})
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

// TestKillingLaunchAllocs pins a cycle of a cold start and a warm launch
// that kills to zero allocations: the victim search reuses its scratch,
// the cold start reuses the Process the previous cycle killed, and the
// trace log's amortized growth rounds to zero per cycle.
func TestKillingLaunchAllocs(t *testing.T) {
	d := killCycle(t, NewDevice)
	step := 0
	allocs := testing.AllocsPerRun(200, func() {
		killCycleStep(t, d, step)
		step++
	})
	if m := d.Metrics(); m.Kills < 200 || m.WarmStarts < 200 {
		t.Fatalf("cycle did not kill on warm launches: %+v", m)
	}
	if allocs != 0 {
		t.Fatalf("cold start + killing warm launch: %v allocs/cycle, want 0", allocs)
	}
}

// TestUnloggedDevice: a device from NewUnloggedDevice behaves exactly as
// a logged one, keeps no log (not even from an imported snapshot) and
// launches without allocating.
func TestUnloggedDevice(t *testing.T) {
	logged := killCycle(t, NewDevice)
	d := killCycle(t, NewUnloggedDevice)
	for step := 0; step < 50; step++ {
		killCycleStep(t, logged, step)
		killCycleStep(t, d, step)
	}
	if d.Trace() != nil {
		t.Fatal("unlogged device has a trace log")
	}
	if !reflect.DeepEqual(d.Metrics(), logged.Metrics()) {
		t.Fatalf("unlogged metrics %+v, logged %+v", d.Metrics(), logged.Metrics())
	}
	st := logged.ExportState()
	if len(st.Trace) == 0 {
		t.Fatal("logged device exported no trace")
	}
	if got := d.ExportState(); got.Trace != nil {
		t.Fatalf("unlogged device exported %d trace events", len(got.Trace))
	}
	if err := d.ImportState(st); err != nil {
		t.Fatal(err)
	}
	if d.Trace() != nil {
		t.Fatal("ImportState brought the trace log back")
	}
	st.Trace = nil
	if got := d.ExportState(); !reflect.DeepEqual(got, st) {
		t.Fatalf("unlogged import/export differs from the logged state apart from the trace")
	}

	step := 50
	allocs := testing.AllocsPerRun(1000, func() {
		killCycleStep(t, d, step)
		step++
	})
	if allocs != 0 {
		t.Fatalf("unlogged cold start + killing warm launch: %v allocs/cycle, want 0", allocs)
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
// that kills) and "kill-unlogged" runs it on an unlogged device, as the
// fleet does; reported per launch.
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
	for _, c := range []struct {
		name string
		boot func(DeviceConfig, KillPolicy) (*Device, error)
	}{
		{"kill", NewDevice},
		{"kill-unlogged", NewUnloggedDevice},
	} {
		b.Run(c.name, func(b *testing.B) {
			d := killCycle(b, c.boot)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				killCycleStep(b, d, i)
			}
			b.StopTimer()
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(2*b.N), "ns/launch")
		})
	}
}
