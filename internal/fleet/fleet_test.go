package fleet

import (
	"errors"
	"testing"
	"time"

	"affectedge/internal/obs"
)

// smallCfg is a fast fleet for unit tests.
func smallCfg() Config {
	return Config{
		Sessions: 24,
		Shards:   4,
		Ticks:    30,
		Seed:     42,
	}
}

func TestConfigNormalize(t *testing.T) {
	cfg, err := Config{Sessions: 3}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Shards != 3 {
		t.Errorf("shards clamped to %d, want 3 (sessions)", cfg.Shards)
	}
	if cfg.TickEvery != time.Second || cfg.QueueDepth != 1024 {
		t.Errorf("defaults not applied: %+v", cfg)
	}
	for _, bad := range []Config{
		{Sessions: -1},
		{Sessions: 1, Ticks: -1},
	} {
		if _, err := bad.Normalize(); err == nil {
			t.Errorf("config %+v accepted", bad)
		}
	}
}

func TestRunBasicInvariants(t *testing.T) {
	cfg := smallCfg()
	st, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if st.Sessions != cfg.Sessions || st.Shards != cfg.Shards || st.Ticks != cfg.Ticks {
		t.Fatalf("shape %+v does not match config %+v", st, cfg)
	}
	if want := int64(cfg.Sessions * cfg.Ticks); st.Observations != want {
		t.Errorf("observations %d, want exactly %d (one per session per tick)", st.Observations, want)
	}
	if st.Discarded > st.Observations {
		t.Errorf("discarded %d exceeds observed %d", st.Discarded, st.Observations)
	}
	if st.BatchRows != st.Observations {
		t.Errorf("batch rows %d != observations %d", st.BatchRows, st.Observations)
	}
	if want := int64(cfg.Shards * cfg.Ticks); st.Batches != want {
		t.Errorf("batches %d, want %d (one coalesced round per shard per tick)", st.Batches, want)
	}
	if st.MaxBatchRows != cfg.Sessions/cfg.Shards {
		t.Errorf("max batch rows %d, want %d", st.MaxBatchRows, cfg.Sessions/cfg.Shards)
	}
	if st.Launches == 0 {
		t.Error("no app launches in a 30-tick run with LaunchEvery default scaled to config")
	}
	if st.Drops != 0 || st.LateDrops != 0 {
		t.Errorf("deterministic run recorded drops: %d/%d", st.Drops, st.LateDrops)
	}
	if st.VirtualDuration != time.Duration(cfg.Ticks)*time.Second {
		t.Errorf("virtual duration %v", st.VirtualDuration)
	}
	if st.WallTime <= 0 {
		t.Errorf("wall time %v", st.WallTime)
	}
	if st.AttentionSwitches == 0 || st.ModeSwitches == 0 {
		t.Errorf("control loop inert: %d attention / %d mode switches", st.AttentionSwitches, st.ModeSwitches)
	}
}

func TestRunLaunchesExerciseDevices(t *testing.T) {
	cfg := smallCfg()
	cfg.Sessions, cfg.Shards, cfg.Ticks = 8, 2, 400
	cfg.LaunchEvery = 3
	st, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if st.Launches == 0 || st.ColdStarts == 0 {
		t.Fatalf("launch schedule inert: %+v", st)
	}
	if st.Kills == 0 {
		t.Errorf("400 ticks of dense launches never hit the process limit: %+v", st)
	}
	if st.PeakRAM == 0 {
		t.Error("peak RAM never sampled")
	}
}

func TestSessionLifecycle(t *testing.T) {
	f, err := New(Config{Sessions: 4, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if got := f.Sessions(); got != 4 {
		t.Fatalf("%d sessions, want 4", got)
	}
	if err := f.AddSession(2); err == nil {
		t.Error("duplicate session id accepted")
	}
	if err := f.AddSession(-1); err == nil {
		t.Error("negative session id accepted")
	}
	if err := f.RemoveSession(99); err == nil {
		t.Error("removing unknown session succeeded")
	}
	if err := f.RemoveSession(2); err != nil {
		t.Fatal(err)
	}
	if err := f.AddSession(100); err != nil {
		t.Fatal(err)
	}
	if got := f.Sessions(); got != 4 {
		t.Fatalf("%d sessions after remove+add, want 4", got)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.AddSession(200); !errors.Is(err, ErrClosed) {
		t.Errorf("AddSession after Close: %v, want ErrClosed", err)
	}
	if err := f.Start(); !errors.Is(err, ErrClosed) {
		t.Errorf("Start after Close: %v, want ErrClosed", err)
	}
	if _, err := f.RunTicks(1); !errors.Is(err, ErrClosed) {
		t.Errorf("RunTicks after Close: %v, want ErrClosed", err)
	}
}

func TestLiveServing(t *testing.T) {
	cfg := Config{Sessions: 8, Shards: 2, QueueDepth: 64}
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Start(); err != nil {
		t.Fatal(err)
	}
	if err := f.Start(); err != nil { // idempotent
		t.Fatal(err)
	}
	x := make([]float64, FeatureDim)
	if err := observe(f, 0, time.Second, x[:3]); err == nil {
		t.Error("short feature vector accepted")
	}
	if err := observe(f, 99, time.Second, x); err == nil {
		t.Error("observation for unknown session accepted")
	}
	if _, err := f.Launch(99, time.Second, "chrome"); err == nil {
		t.Error("launch for unknown session accepted")
	}
	if _, err := f.Launch(0, time.Second, "chrome"); err != nil {
		t.Fatal(err)
	}
	const rounds = 50
	for i := 0; i < rounds; i++ {
		for id := 0; id < 8; id++ {
			for {
				err := observe(f, id, time.Duration(i+1)*time.Second, x)
				if err == nil {
					break
				}
				if !errors.Is(err, ErrBackpressure) {
					t.Fatal(err)
				}
				time.Sleep(time.Millisecond)
			}
		}
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := observe(f, 0, time.Second, x); !errors.Is(err, ErrClosed) {
		t.Errorf("observe after Close: %v, want ErrClosed", err)
	}
	st := f.Stats()
	// Close drains: every accepted observation must have been applied.
	if want := int64(8 * rounds); st.Observations != want {
		t.Errorf("observations %d, want %d (graceful drain)", st.Observations, want)
	}
	if st.Launches != 1 {
		t.Errorf("launches %d, want 1", st.Launches)
	}
	if st.Batches == 0 {
		t.Error("no inference batches recorded")
	}
}

func TestBackpressureDropsAndCounts(t *testing.T) {
	reg := obs.NewRegistry()
	WireMetrics(reg.Scope("fleet"))
	defer WireMetrics(nil)
	cfg := Config{Sessions: 2, Shards: 1, QueueDepth: 4}
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// No Start: the queue only fills. Depth 4 ⇒ fifth enqueue drops.
	x := make([]float64, FeatureDim)
	var drops int
	for i := 0; i < 10; i++ {
		if err := observe(f, 0, time.Second, x); errors.Is(err, ErrBackpressure) {
			drops++
		} else if err != nil {
			t.Fatal(err)
		}
	}
	if drops != 6 {
		t.Errorf("%d drops from 10 sends into a depth-4 queue, want 6", drops)
	}
	st := f.Stats()
	if st.Drops != 6 {
		t.Errorf("stats drops %d, want 6", st.Drops)
	}
	snap := reg.Snapshot()
	if got := snap.Gauge("fleet.shard00.queue_depth_high"); got != 4 {
		t.Errorf("queue depth high-water %d, want 4", got)
	}
	if got := snap.Gauge("fleet.sessions"); got != 2 {
		t.Errorf("sessions gauge %d, want 2", got)
	}
	if got := snap.Counter("fleet.ingress"); got != 4 {
		t.Errorf("fleet.ingress counter %d, want 4", got)
	}
	// Draining via Start+Close applies the four queued observations.
	if err := f.Start(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if got := f.Stats().Observations; got != 4 {
		t.Errorf("observations %d after drain, want 4", got)
	}
}

func TestLateDropSkipsRemovedSession(t *testing.T) {
	cfg := Config{Sessions: 2, Shards: 1, QueueDepth: 8}
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, FeatureDim)
	for i := 0; i < 3; i++ {
		if err := observe(f, 1, time.Second, x); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.RemoveSession(1); err != nil {
		t.Fatal(err)
	}
	if err := f.Start(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	st := f.Stats()
	if st.LateDrops != 3 {
		t.Errorf("late drops %d, want 3", st.LateDrops)
	}
	if st.Observations != 0 {
		t.Errorf("observations %d, want 0 (session was gone)", st.Observations)
	}
}

// TestMetricsPerInstance builds two fleets under distinct scopes and one
// unwired, in one process. Each overfills its queue by a different
// amount and then loses its queued rows to a removed session: every
// Stats shows its own fleet's drops and late drops alone, every scope's
// snapshot its own ingress, and a Registry.Reset leaves Stats (Drops and
// LateDrops are fingerprint fields) untouched. The batch, probe and drop
// accounting has one store, the shard's own fields that Stats reads, so
// no registry copy of it exists.
func TestMetricsPerInstance(t *testing.T) {
	regs := []*obs.Registry{obs.NewRegistry(), obs.NewRegistry(), nil}
	fleets := make([]*Fleet, len(regs))
	for i, reg := range regs {
		WireMetrics(reg.Scope("fleet")) // a nil registry yields the nil scope
		f, err := New(Config{Sessions: 1 + i, Shards: 1, QueueDepth: 4 + i})
		if err != nil {
			t.Fatal(err)
		}
		fleets[i] = f
	}
	WireMetrics(nil)
	x := make([]float64, fleets[0].FeatureDim())
	for i, f := range fleets {
		// No Start: 4+i rows queue for session 0, the next 1+i drop.
		for k := 0; k < 5+2*i; k++ {
			if err := observe(f, 0, time.Second, x); err != nil && !errors.Is(err, ErrBackpressure) {
				t.Fatal(err)
			}
		}
		if err := f.RemoveSession(0); err != nil {
			t.Fatal(err)
		}
		if err := f.Start(); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
	}
	for i, f := range fleets {
		drops, late := int64(1+i), int64(4+i)
		st := f.Stats()
		if st.Drops != drops || st.LateDrops != late || st.Sessions != i {
			t.Errorf("fleet %d: drops %d late %d sessions %d, want %d %d %d",
				i, st.Drops, st.LateDrops, st.Sessions, drops, late, i)
		}
		if regs[i] == nil {
			continue
		}
		snap := regs[i].Snapshot()
		for name, want := range map[string]int64{
			"fleet.ingress":        late,
			"fleet.sessions_added": int64(1 + i),
		} {
			if got := snap.Counter(name); got != want {
				t.Errorf("fleet %d: %s = %d, want %d", i, name, got, want)
			}
		}
		if got := snap.Gauge("fleet.sessions"); got != int64(i) {
			t.Errorf("fleet %d: fleet.sessions gauge %d, want %d", i, got, i)
		}
		for _, c := range snap.Counters {
			switch c.Name {
			case "fleet.batches", "fleet.video_decodes", "fleet.shard00.drops", "fleet.shard00.late_drops":
				t.Errorf("fleet %d: registry holds a copy of Stats' %s", i, c.Name)
			}
		}
		if _, ok := snap.Histogram("fleet.batch_rows"); ok {
			t.Errorf("fleet %d: registry holds a copy of Stats' fleet.batch_rows", i)
		}
		fp := st.Fingerprint()
		regs[i].Reset()
		if after := f.Stats(); after.Fingerprint() != fp || after.Drops != drops || after.LateDrops != late {
			t.Errorf("fleet %d: Registry.Reset moved Stats: drops %d late %d", i, after.Drops, after.LateDrops)
		}
	}
}

func TestRunTicksRejectsLiveFleet(t *testing.T) {
	f, err := New(Config{Sessions: 2, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := f.Start(); err != nil {
		t.Fatal(err)
	}
	if _, err := f.RunTicks(1); err == nil {
		t.Error("deterministic RunTicks accepted on a started fleet")
	}
	if _, err := f.RunTicks(-1); err == nil {
		t.Error("negative tick count accepted")
	}
}

func TestConfidenceMargin(t *testing.T) {
	for _, tc := range []struct {
		logits []float64
		want   float64
	}{
		{[]float64{1, 1}, 0},      // tie: fully ambiguous
		{[]float64{2, 1}, 0.5},    // margin 1
		{[]float64{5}, 1},         // degenerate single class
		{[]float64{3, 1, 2}, 0.5}, // margin is top-2, not top-vs-last
		{[]float64{0, -4}, 0.8},   // margin 4
	} {
		if _, got := classify(tc.logits); got != tc.want {
			t.Errorf("classify(%v) confidence = %v, want %v", tc.logits, got, tc.want)
		}
	}
}
