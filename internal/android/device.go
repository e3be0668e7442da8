package android

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
	"sync"
	"time"

	"affectedge/internal/emotion"
	"affectedge/internal/trace"
)

// ProcState is a process lifecycle state.
type ProcState int

// Process states.
const (
	StateForeground ProcState = iota
	StateBackground
)

// Process is one running app instance.
type Process struct {
	App       App
	State     ProcState
	StartedAt time.Duration // creation time (FIFO key)
	LastUsed  time.Duration // last foregrounded
	Launches  int
}

// DeviceConfig mirrors the Fig 7 (right) emulator specification.
type DeviceConfig struct {
	RAMBytes int64
	// SystemReserveBytes is RAM unavailable to app processes.
	SystemReserveBytes int64
	// ProcessLimit is the background-process cap (Android default 20).
	ProcessLimit int
	// FlashReadBandwidth in bytes/second for cold-start loads.
	FlashReadBandwidth float64
	// WarmSwitchTime is the foreground-switch latency for cached apps.
	WarmSwitchTime time.Duration
}

// DefaultDeviceConfig returns the paper's emulator: 4 GB RAM, limit 20.
func DefaultDeviceConfig() DeviceConfig {
	return DeviceConfig{
		RAMBytes:           4 * gb,
		SystemReserveBytes: 1 * gb,
		ProcessLimit:       20,
		FlashReadBandwidth: 400 << 20, // 400 MB/s UFS-class read
		WarmSwitchTime:     80 * time.Millisecond,
	}
}

// Metrics are the Fig 10 measurements plus memory-pressure detail.
type Metrics struct {
	Launches    int
	ColdStarts  int
	WarmStarts  int
	BytesLoaded int64         // total memory loaded at app start (Fig 10 left)
	LoadingTime time.Duration // total app loading time (Fig 10 right)
	Kills       int
	// KillsByLimit/KillsByMemory split kills by trigger.
	KillsByLimit, KillsByMemory int
	// PeakRAM is the high-water mark of resident app memory plus reserve.
	PeakRAM int64
}

// Device is the simulated phone. A device built by NewDevice records
// its process lifecycle (the Fig 9 log) for the experiments that render
// it; one built by NewUnloggedDevice keeps no log, so its memory does
// not grow with run length. The fleet serves unlogged devices.
type Device struct {
	cfg        DeviceConfig
	policy     KillPolicy
	apps       map[string]App // shared read-only catalog index (catalogIndex)
	procs      map[string]*Process
	foreground string
	mood       emotion.Mood
	metrics    Metrics
	log        *trace.Log // nil on an unlogged device
	candidates []*Process // pickVictim scratch
	free       []*Process // killed processes, reused by cold starts
}

// catalogIndex validates the standard catalog and indexes it by name,
// once: every device shares the one map and only reads it.
var catalogIndex = sync.OnceValues(func() (map[string]App, error) {
	if err := ValidateCatalog(); err != nil {
		return nil, err
	}
	return CatalogByName(), nil
})

// NewDevice boots a device with the given policy over the standard
// catalog, recording its process lifecycle (see Trace).
func NewDevice(cfg DeviceConfig, policy KillPolicy) (*Device, error) {
	d, err := NewUnloggedDevice(cfg, policy)
	if err != nil {
		return nil, err
	}
	d.log = trace.New()
	return d, nil
}

// NewUnloggedDevice boots a device like NewDevice that records no
// lifecycle log: Trace returns nil, and ImportState drops a snapshot's
// trace.
func NewUnloggedDevice(cfg DeviceConfig, policy KillPolicy) (*Device, error) {
	if cfg.RAMBytes <= 0 || cfg.ProcessLimit <= 0 || cfg.FlashReadBandwidth <= 0 {
		return nil, fmt.Errorf("android: invalid device config %+v", cfg)
	}
	if policy == nil {
		return nil, fmt.Errorf("android: nil kill policy")
	}
	apps, err := catalogIndex()
	if err != nil {
		return nil, err
	}
	return &Device{
		cfg:    cfg,
		policy: policy,
		apps:   apps,
		procs:  map[string]*Process{},
		mood:   emotion.CalmMood,
	}, nil
}

// Metrics returns the accumulated measurements.
func (d *Device) Metrics() Metrics { return d.metrics }

// Trace returns the process lifecycle log (Fig 9 data), or nil, which
// reads as an empty log, on an unlogged device.
func (d *Device) Trace() *trace.Log { return d.log }

// Mood returns the current detected mood.
func (d *Device) Mood() emotion.Mood { return d.mood }

// SetMood feeds a new affect-classifier output to the device. The
// emotional background manager re-ranks on the next pressure event.
func (d *Device) SetMood(m emotion.Mood) error {
	if !m.Valid() {
		return fmt.Errorf("android: invalid mood %d", int(m))
	}
	d.mood = m
	return nil
}

// usedRAM returns resident app memory plus the system reserve.
func (d *Device) usedRAM() int64 {
	total := d.cfg.SystemReserveBytes
	for _, p := range d.procs {
		total += p.App.MemBytes
	}
	return total
}

// backgroundCount returns the number of background processes.
func (d *Device) backgroundCount() int {
	var n int
	for _, p := range d.procs {
		if p.State == StateBackground {
			n++
		}
	}
	return n
}

// Alive reports whether an app currently has a process.
func (d *Device) Alive(app string) bool {
	_, ok := d.procs[app]
	return ok
}

// Launch brings an app to the foreground at virtual time now, cold-starting
// it if its process was killed (or never started), then enforces the
// process and memory limits via the kill policy. It returns the launch
// latency.
func (d *Device) Launch(now time.Duration, appName string) (time.Duration, error) {
	app, ok := d.apps[appName]
	if !ok {
		return 0, fmt.Errorf("android: app %q not installed", appName)
	}
	d.metrics.Launches++

	// Demote the previous foreground app.
	if d.foreground != "" && d.foreground != appName {
		if p, ok := d.procs[d.foreground]; ok {
			p.State = StateBackground
			d.log.Record(now, d.foreground, trace.EventBackground, "")
		}
	}

	var latency time.Duration
	p, alive := d.procs[appName]
	if alive {
		// Warm start: process cached in RAM, no flash traffic.
		d.metrics.WarmStarts++
		latency = d.cfg.WarmSwitchTime
		mtr.warmStarts.Inc()
		mtr.flashAvoided.Add(app.FileBytes)
	} else {
		// Cold start: load from flash and initialize.
		d.metrics.ColdStarts++
		d.metrics.BytesLoaded += app.FileBytes
		readTime := time.Duration(float64(app.FileBytes) / d.cfg.FlashReadBandwidth * float64(time.Second))
		latency = readTime + app.InitTime
		if n := len(d.free); n > 0 {
			p = d.free[n-1]
			d.free = d.free[:n-1]
			*p = Process{App: app, StartedAt: now}
		} else {
			p = &Process{App: app, StartedAt: now}
		}
		d.procs[appName] = p
		d.log.Record(now, appName, trace.EventStart, "cold start")
		mtr.coldStarts.Inc()
		mtr.flashLoaded.Add(app.FileBytes)
	}
	d.metrics.LoadingTime += latency
	mtr.launches.Inc()
	mtr.launchLatency.ObserveDuration(latency)
	p.State = StateForeground
	p.LastUsed = now
	p.Launches++
	d.foreground = appName
	d.log.Record(now, appName, trace.EventForeground, "")

	if used := d.usedRAM(); used > d.metrics.PeakRAM {
		d.metrics.PeakRAM = used
		mtr.peakRAM.SetMax(used)
	}
	d.enforceLimits(now)
	return latency, nil
}

// enforceLimits kills background processes while the process limit or RAM
// budget is exceeded, using the configured policy to pick victims. A
// killed process goes on the free list for the next cold start.
func (d *Device) enforceLimits(now time.Duration) {
	for d.backgroundCount() > d.cfg.ProcessLimit || d.usedRAM() > d.cfg.RAMBytes {
		victim := d.pickVictim(now)
		if victim == nil {
			return // only unkillable processes remain
		}
		reason := "process limit"
		if d.usedRAM() > d.cfg.RAMBytes {
			reason = "low memory"
			d.metrics.KillsByMemory++
			mtr.killsByMemory.Inc()
		} else {
			d.metrics.KillsByLimit++
			mtr.killsByLimit.Inc()
		}
		delete(d.procs, victim.App.Name)
		d.free = append(d.free, victim)
		d.metrics.Kills++
		mtr.kills.Inc()
		d.log.Record(now, victim.App.Name, trace.EventKill, reason)
	}
}

// pickVictim collects killable background candidates and delegates to the
// policy. System and periodic apps are exempt, matching stock Android's
// behavior for system processes and periodically woken apps.
func (d *Device) pickVictim(now time.Duration) *Process {
	candidates := d.candidates[:0]
	for _, p := range d.procs {
		if p.State != StateBackground || p.App.System || p.App.Periodic {
			continue
		}
		candidates = append(candidates, p)
	}
	d.candidates = candidates
	if len(candidates) == 0 {
		return nil
	}
	// Stable order independent of map iteration: app names are unique,
	// so (StartedAt, Name) is a total order.
	slices.SortFunc(candidates, func(a, b *Process) int {
		if c := cmp.Compare(a.StartedAt, b.StartedAt); c != 0 {
			return c
		}
		return strings.Compare(a.App.Name, b.App.Name)
	})
	return d.policy.Victim(candidates, now, d.mood)
}
