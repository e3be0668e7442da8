package android

import (
	"fmt"
	"sort"
	"time"

	"affectedge/internal/emotion"
	"affectedge/internal/trace"
)

// Device snapshot/restore: the process table, foreground pointer, mood,
// accumulated metrics, and the lifecycle trace (if the device keeps
// one), exported as plain data so higher layers (the fleet session
// envelope) can gob-serialize a device and rebuild it bit-for-bit. Apps
// are stored by name and re-resolved against the catalog on import, so a
// snapshot never smuggles in made-up footprints; import validates
// everything before touching the device.

// ProcessState is one process-table entry in exportable form.
type ProcessState struct {
	App       string
	State     ProcState
	StartedAt time.Duration
	LastUsed  time.Duration
	Launches  int
}

// DeviceState is the full exportable device state.
type DeviceState struct {
	// Config identifies the hardware the state was captured on; import
	// refuses to load it onto a differently configured device.
	Config     DeviceConfig
	Foreground string
	Mood       emotion.Mood
	Metrics    Metrics
	// Procs are the resident processes, sorted by app name so the encoded
	// form is deterministic regardless of map iteration order.
	Procs []ProcessState
	// Trace is the recorded lifecycle history (Fig 9 data). Only a
	// logged device (NewDevice) fills it; an unlogged one (the fleet's)
	// exports it empty and drops it on import.
	Trace []trace.Event
}

// ExportState copies out the device state. The result shares nothing with
// the device, so later Launch calls cannot mutate a taken snapshot.
func (d *Device) ExportState() DeviceState {
	st := DeviceState{
		Config:     d.cfg,
		Foreground: d.foreground,
		Mood:       d.mood,
		Metrics:    d.metrics,
		Trace:      append([]trace.Event(nil), d.log.Events()...),
	}
	st.Procs = make([]ProcessState, 0, len(d.procs))
	for name, p := range d.procs {
		st.Procs = append(st.Procs, ProcessState{
			App:       name,
			State:     p.State,
			StartedAt: p.StartedAt,
			LastUsed:  p.LastUsed,
			Launches:  p.Launches,
		})
	}
	sort.Slice(st.Procs, func(i, j int) bool { return st.Procs[i].App < st.Procs[j].App })
	return st
}

// ImportState replaces the device's state with st. Every field is
// validated first — config match, catalog membership, state enums, the
// foreground invariant — and the device is only mutated once the whole
// snapshot has been accepted, so a bad snapshot can never half-apply.
func (d *Device) ImportState(st DeviceState) error {
	if st.Config != d.cfg {
		return fmt.Errorf("android: snapshot device config %+v does not match device %+v", st.Config, d.cfg)
	}
	if !st.Mood.Valid() {
		return fmt.Errorf("android: snapshot mood %d out of range", int(st.Mood))
	}
	procs := make(map[string]*Process, len(st.Procs))
	var foregroundSeen bool
	for _, p := range st.Procs {
		app, ok := d.apps[p.App]
		if !ok {
			return fmt.Errorf("android: snapshot process %q not in catalog", p.App)
		}
		if _, dup := procs[p.App]; dup {
			return fmt.Errorf("android: snapshot has duplicate process %q", p.App)
		}
		if p.State != StateForeground && p.State != StateBackground {
			return fmt.Errorf("android: snapshot process %q state %d out of range", p.App, int(p.State))
		}
		if p.State == StateForeground {
			if p.App != st.Foreground {
				return fmt.Errorf("android: snapshot process %q foreground but %q is the foreground app", p.App, st.Foreground)
			}
			foregroundSeen = true
		}
		if p.Launches < 0 || p.StartedAt < 0 {
			return fmt.Errorf("android: snapshot process %q has negative fields", p.App)
		}
		procs[p.App] = &Process{
			App:       app,
			State:     p.State,
			StartedAt: p.StartedAt,
			LastUsed:  p.LastUsed,
			Launches:  p.Launches,
		}
	}
	if st.Foreground != "" && !foregroundSeen {
		return fmt.Errorf("android: snapshot foreground %q has no process entry", st.Foreground)
	}
	if st.Metrics.Launches < 0 || st.Metrics.Kills < 0 || st.Metrics.ColdStarts < 0 ||
		st.Metrics.WarmStarts < 0 || st.Metrics.BytesLoaded < 0 || st.Metrics.PeakRAM < 0 {
		return fmt.Errorf("android: snapshot metrics have negative counters")
	}
	d.procs = procs
	d.foreground = st.Foreground
	d.mood = st.Mood
	d.metrics = st.Metrics
	if d.log != nil {
		d.log = trace.FromEvents(st.Trace)
	}
	return nil
}

// DeviceClasses returns the heterogeneous hardware profiles the fleet's
// per-shard catalogs draw from: a flash-starved budget phone, the paper's
// 4 GB mid-range emulator, and a flagship with headroom. Ordered cheapest
// first so class i is strictly weaker than class i+1.
func DeviceClasses() []DeviceConfig {
	return []DeviceConfig{
		{
			RAMBytes:           2 * gb,
			SystemReserveBytes: 768 * mb,
			ProcessLimit:       10,
			FlashReadBandwidth: 180 << 20,
			WarmSwitchTime:     120 * time.Millisecond,
		},
		DefaultDeviceConfig(),
		{
			RAMBytes:           8 * gb,
			SystemReserveBytes: 1536 * mb,
			ProcessLimit:       32,
			FlashReadBandwidth: 900 << 20,
			WarmSwitchTime:     55 * time.Millisecond,
		},
	}
}
