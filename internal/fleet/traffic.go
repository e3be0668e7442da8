package fleet

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"time"

	"affectedge/internal/android"
	"affectedge/internal/emotion"
	"affectedge/internal/monkey"
)

// TrafficModel shapes a session's app-launch traffic on the deterministic
// path: how long until the next launch and which app it foregrounds.
// Implementations must be deterministic functions of their arguments (all
// randomness through the supplied session RNG) and safe for concurrent use
// from multiple shards — models carry no per-session state; the session
// itself holds the schedule.
type TrafficModel interface {
	// Name identifies the model ("uniform", "bursty", ...); snapshots
	// record it and restores reject a mismatch.
	Name() string
	// NextGap draws the tick gap to the session's next launch. mean is
	// Config.LaunchEvery, t the current tick. Must return >= 1 so the
	// schedule always advances.
	NextGap(rng *rand.Rand, mean, t int) int
	// PickApp selects the app to launch from the fleet's catalog (always
	// non-empty, sorted).
	PickApp(rng *rand.Rand, apps []string, t int) string
}

// UniformTraffic is the default model and the historical behavior: apps
// uniform over the catalog, gaps uniform on [1, 2*mean]. Runs under it are
// bit-identical to runs before traffic models existed (the pinned golden
// fingerprints are its regression test).
type UniformTraffic struct{}

// Name implements TrafficModel.
func (UniformTraffic) Name() string { return "uniform" }

// NextGap implements TrafficModel.
func (UniformTraffic) NextGap(rng *rand.Rand, mean, t int) int { return 1 + rng.Intn(2*mean) }

// PickApp implements TrafficModel.
func (UniformTraffic) PickApp(rng *rand.Rand, apps []string, t int) string {
	return apps[rng.Intn(len(apps))]
}

// BurstyTraffic alternates tight launch bursts with long idle stretches:
// with probability 1/4 the next launch follows in 1-3 ticks (the user is
// actively bouncing between apps), otherwise the session idles for
// [mean, 3*mean) ticks. The long-run launch rate is close to uniform's but
// the arrival process is heavy-tailed, which is what stresses the device's
// process-limit kill path.
type BurstyTraffic struct{}

// Name implements TrafficModel.
func (BurstyTraffic) Name() string { return "bursty" }

// NextGap implements TrafficModel.
func (BurstyTraffic) NextGap(rng *rand.Rand, mean, t int) int {
	if rng.Intn(4) == 0 {
		return 1 + rng.Intn(3)
	}
	return mean + rng.Intn(2*mean)
}

// PickApp implements TrafficModel.
func (BurstyTraffic) PickApp(rng *rand.Rand, apps []string, t int) string {
	return apps[rng.Intn(len(apps))]
}

// DiurnalTraffic layers the monkey package's mood-phase timeline onto the
// fleet clock: the day is the phase list repeated, and the phase mood at
// the current virtual time scales launch activity — excited phases launch
// at twice the base rate, calm phases at half. App choice stays uniform;
// the phase structure (not app bias) is what this model adds.
type DiurnalTraffic struct {
	// Phases define one day; empty means monkey.DefaultConfig().Phases
	// (12 min excited, 8 min calm — the paper's compressed session).
	Phases []monkey.Phase
	// TickEvery converts ticks to the phase timeline's virtual time; zero
	// means one second per tick (the fleet default).
	TickEvery time.Duration
}

// Name implements TrafficModel.
func (DiurnalTraffic) Name() string { return "diurnal" }

func (d DiurnalTraffic) phases() []monkey.Phase {
	if len(d.Phases) > 0 {
		return d.Phases
	}
	return monkey.DefaultConfig().Phases
}

// mood returns the phase mood at tick t, wrapping the day.
func (d DiurnalTraffic) mood(t int) emotion.Mood {
	every := d.TickEvery
	if every <= 0 {
		every = time.Second
	}
	phases := d.phases()
	var day time.Duration
	for _, ph := range phases {
		day += ph.Duration
	}
	at := time.Duration(t) * every
	if day > 0 {
		at %= day
	}
	return monkey.PhaseMoodAt(phases, at)
}

// NextGap implements TrafficModel.
func (d DiurnalTraffic) NextGap(rng *rand.Rand, mean, t int) int {
	switch d.mood(t) {
	case emotion.Excited:
		return 1 + rng.Intn(mean)
	default:
		return 1 + rng.Intn(4*mean)
	}
}

// PickApp implements TrafficModel.
func (DiurnalTraffic) PickApp(rng *rand.Rand, apps []string, t int) string {
	return apps[rng.Intn(len(apps))]
}

// AdversarialTraffic is the worst case for the background manager: every
// launch picks from the heaviest quarter of the catalog (by resident
// footprint) and gaps are minimal, so the device lives at its process and
// memory limits and the kill policy fires constantly.
type AdversarialTraffic struct{}

// Name implements TrafficModel.
func (AdversarialTraffic) Name() string { return "adversarial" }

// NextGap implements TrafficModel.
func (AdversarialTraffic) NextGap(rng *rand.Rand, mean, t int) int { return 1 + rng.Intn(2) }

// PickApp implements TrafficModel.
func (AdversarialTraffic) PickApp(rng *rand.Rand, apps []string, t int) string {
	heavy := catalogHeavy()
	if !slices.Equal(apps, catalogNames()) {
		heavy = heaviestQuarter(apps)
	}
	return heavy[rng.Intn(len(heavy))]
}

// catalogNames and catalogHeavy are the full catalog and its heaviest
// quarter, computed once: every fleet launches from the full catalog, so
// a launch needs neither the catalog map nor a sort.
var (
	catalogNames = sync.OnceValue(android.CatalogNames)
	catalogHeavy = sync.OnceValue(func() []string { return heaviestQuarter(catalogNames()) })
)

// heaviestQuarter returns the top len/4 (min 1) apps of the catalog
// by resident memory footprint, in deterministic order.
func heaviestQuarter(apps []string) []string {
	byName := android.CatalogByName()
	out := append([]string(nil), apps...)
	sort.SliceStable(out, func(i, j int) bool {
		return byName[out[i]].MemBytes > byName[out[j]].MemBytes
	})
	n := len(out) / 4
	if n < 1 {
		n = 1
	}
	return out[:n]
}

// TrafficByName resolves a fleetsim -traffic flag value to a model.
func TrafficByName(name string) (TrafficModel, error) {
	switch name {
	case "", "uniform":
		return UniformTraffic{}, nil
	case "bursty":
		return BurstyTraffic{}, nil
	case "diurnal":
		return DiurnalTraffic{}, nil
	case "adversarial":
		return AdversarialTraffic{}, nil
	}
	return nil, fmt.Errorf("fleet: unknown traffic model %q (want uniform|bursty|diurnal|adversarial)", name)
}
