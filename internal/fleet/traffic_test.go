package fleet

import (
	"crypto/sha256"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"affectedge/internal/android"
	"affectedge/internal/emotion"
	"affectedge/internal/monkey"
)

// allTraffic returns every named model once.
func allTraffic(t *testing.T) []TrafficModel {
	t.Helper()
	var models []TrafficModel
	for _, name := range []string{"uniform", "bursty", "diurnal", "adversarial"} {
		m, err := TrafficByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if m.Name() != name {
			t.Fatalf("TrafficByName(%q).Name() = %q", name, m.Name())
		}
		models = append(models, m)
	}
	return models
}

func TestTrafficByName(t *testing.T) {
	allTraffic(t)
	if m, err := TrafficByName(""); err != nil || m.Name() != "uniform" {
		t.Fatalf("empty name: %v, %v", m, err)
	}
	if _, err := TrafficByName("rushhour"); err == nil {
		t.Fatal("unknown model accepted")
	}
}

// TestTrafficModelContract pins the interface guarantees every model must
// hold for the simulation to stay deterministic and always advance: gaps
// >= 1, apps from the given catalog, and pure functions of (rng, args).
func TestTrafficModelContract(t *testing.T) {
	apps := android.CatalogNames()
	for _, m := range allTraffic(t) {
		rng := rand.New(rand.NewSource(9))
		replay := rand.New(rand.NewSource(9))
		inCatalog := map[string]bool{}
		for _, a := range apps {
			inCatalog[a] = true
		}
		for tick := 0; tick < 500; tick++ {
			gap := m.NextGap(rng, 5, tick)
			if gap < 1 {
				t.Fatalf("%s: NextGap = %d at tick %d, want >= 1", m.Name(), gap, tick)
			}
			if g2 := m.NextGap(replay, 5, tick); g2 != gap {
				t.Fatalf("%s: NextGap not deterministic at tick %d: %d vs %d", m.Name(), tick, gap, g2)
			}
			app := m.PickApp(rng, apps, tick)
			if !inCatalog[app] {
				t.Fatalf("%s: PickApp returned %q, not in catalog", m.Name(), app)
			}
			if a2 := m.PickApp(replay, apps, tick); a2 != app {
				t.Fatalf("%s: PickApp not deterministic at tick %d: %q vs %q", m.Name(), tick, app, a2)
			}
		}
	}
}

// TestHeaviestQuarter: the adversarial model's target set is the top
// quarter of the catalog by resident footprint, minimum one app, and never
// an app outside the given subset.
func TestHeaviestQuarter(t *testing.T) {
	apps := android.CatalogNames()
	byName := android.CatalogByName()
	heavy := heaviestQuarter(apps)
	if want := len(apps) / 4; len(heavy) != want {
		t.Fatalf("heaviestQuarter size %d, want %d", len(heavy), want)
	}
	floor := byName[heavy[len(heavy)-1]].MemBytes
	for _, name := range apps {
		picked := false
		for _, h := range heavy {
			if h == name {
				picked = true
			}
		}
		if !picked && byName[name].MemBytes > floor {
			t.Fatalf("%s (%d bytes) outranks picked floor %d but was skipped", name, byName[name].MemBytes, floor)
		}
	}
	if got := heaviestQuarter(apps[:2]); len(got) != 1 {
		t.Fatalf("two-app subset: %v, want exactly one", got)
	}
	if got := heaviestQuarter(apps[:1]); len(got) != 1 || got[0] != apps[0] {
		t.Fatalf("single-app subset: %v", got)
	}
}

// TestAdversarialPicksPinned pins the adversarial model's launch targets
// for a fixed seed, over the full catalog (the memoised quarter) and over
// a subset (computed per call): the sequences were recorded when every
// launch rebuilt the catalog map and re-sorted.
func TestAdversarialPicksPinned(t *testing.T) {
	apps := android.CatalogNames()
	for _, c := range []struct {
		apps []string
		want string
	}{
		{apps, "805bdf89272dc9b3ff5f082b0e5d3f4c70ee1e2b8932db0506dadd834f3395a0"},
		{apps[:9], "eda21894a1d942a16c13efc2b5175763a9400d5c5505e19567900296b18345c8"},
	} {
		rng := rand.New(rand.NewSource(7))
		picks := make([]string, 256)
		for tick := range picks {
			picks[tick] = AdversarialTraffic{}.PickApp(rng, c.apps, tick)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256([]byte(strings.Join(picks, ",")))); got != c.want {
			t.Errorf("%d apps: picks hash %s, want %s (first picks %v)", len(c.apps), got, c.want, picks[:8])
		}
	}
}

// TestAdversarialPickAppAllocs: a launch from the full catalog allocates
// nothing.
func TestAdversarialPickAppAllocs(t *testing.T) {
	apps := android.CatalogNames()
	rng := rand.New(rand.NewSource(1))
	if n := testing.AllocsPerRun(100, func() { AdversarialTraffic{}.PickApp(rng, apps, 0) }); n != 0 {
		t.Fatalf("PickApp allocates %.1f times per launch, want 0", n)
	}
}

// TestDiurnalMood: the phase timeline wraps day boundaries, sticks to the
// final phase mood inside the day, and an empty phase list falls back to
// the monkey defaults rather than dividing by a zero-length day.
func TestDiurnalMood(t *testing.T) {
	d := DiurnalTraffic{
		Phases: []monkey.Phase{
			{Mood: emotion.Excited, Duration: 10 * time.Second},
			{Mood: emotion.CalmMood, Duration: 5 * time.Second},
		},
	}
	cases := map[int]bool{ // tick -> excited?
		0:  true,
		9:  true,
		10: false,
		14: false,
		15: true,  // wrapped into day two
		29: false, // wrapped, calm tail
	}
	for tick, excited := range cases {
		if got := d.mood(tick) == emotion.Excited; got != excited {
			t.Errorf("tick %d: excited = %v, want %v", tick, got, excited)
		}
	}
	var def DiurnalTraffic
	rng := rand.New(rand.NewSource(1))
	for tick := 0; tick < 2000; tick += 97 {
		if gap := def.NextGap(rng, 5, tick); gap < 1 || gap > 20 {
			t.Fatalf("default diurnal gap %d at tick %d", gap, tick)
		}
	}
}

// TestTrafficChurnInvariance: the lifecycle contract holds under every
// model, not just uniform — catch-up replays the same NextGap/PickApp
// draws the live path would have made.
func TestTrafficChurnInvariance(t *testing.T) {
	for _, m := range allTraffic(t) {
		cfg := detCfg()
		cfg.Traffic = m
		oracle, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		f, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.RunTicks(12); err != nil {
			t.Fatal(err)
		}
		for id := 1; id < cfg.Sessions; id += 4 {
			if err := f.Disconnect(id); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := f.RunTicks(cfg.Ticks - 12); err != nil {
			t.Fatal(err)
		}
		for id := 1; id < cfg.Sessions; id += 4 {
			if err := f.Reconnect(id); err != nil {
				t.Fatal(err)
			}
		}
		if got, want := f.Stats().Fingerprint(), oracle.Fingerprint(); got != want {
			t.Fatalf("%s: churn fingerprint %s, oracle %s", m.Name(), got, want)
		}
	}
}
