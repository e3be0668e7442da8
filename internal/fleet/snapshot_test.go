package fleet

import (
	"bytes"
	"encoding/gob"
	"errors"
	"os"
	"strings"
	"testing"
	"time"
)

// snapFleet builds a detCfg fleet advanced `ticks` rounds.
func snapFleet(t *testing.T, ticks int) *Fleet {
	t.Helper()
	f, err := New(detCfg())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.RunTicks(ticks); err != nil {
		t.Fatal(err)
	}
	return f
}

// TestSessionSnapshotRoundTrip: snapshot → remove → restore mid-run is
// invisible — the finished run carries the churn-free fingerprint.
func TestSessionSnapshotRoundTrip(t *testing.T) {
	cfg := detCfg()
	oracle, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	f := snapFleet(t, 20)
	for _, id := range []int{0, 7, 41} {
		var buf bytes.Buffer
		if err := f.SnapshotSession(id, &buf); err != nil {
			t.Fatal(err)
		}
		if err := f.RemoveSession(id); err != nil {
			t.Fatal(err)
		}
		if err := f.RestoreSession(&buf); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := f.RunTicks(cfg.Ticks - 20); err != nil {
		t.Fatal(err)
	}
	if got, want := f.Stats().Fingerprint(), oracle.Fingerprint(); got != want {
		t.Fatalf("round-tripped fingerprint %s, oracle %s", got, want)
	}
}

// TestSessionSnapshotParkedStaysParked: a disconnected session migrates as
// disconnected and still needs an explicit Reconnect.
func TestSessionSnapshotParkedStaysParked(t *testing.T) {
	f := snapFleet(t, 10)
	if err := f.Disconnect(5); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := f.SnapshotSession(5, &buf); err != nil {
		t.Fatal(err)
	}
	if err := f.RemoveSession(5); err != nil {
		t.Fatal(err)
	}
	if err := f.RestoreSession(&buf); err != nil {
		t.Fatal(err)
	}
	if !f.Disconnected(5) {
		t.Fatal("parked snapshot restored as connected")
	}
	if err := f.Reconnect(5); err != nil {
		t.Fatal(err)
	}
}

// TestSessionSnapshotLagRestore: a snapshot taken at an earlier tick
// restores into a later fleet by replaying the gap — equivalent to never
// leaving.
func TestSessionSnapshotLagRestore(t *testing.T) {
	cfg := detCfg()
	oracle, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	f := snapFleet(t, 15)
	var buf bytes.Buffer
	if err := f.SnapshotSession(11, &buf); err != nil {
		t.Fatal(err)
	}
	if err := f.RemoveSession(11); err != nil {
		t.Fatal(err)
	}
	if _, err := f.RunTicks(10); err != nil {
		t.Fatal(err)
	}
	if err := f.RestoreSession(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := f.RunTicks(cfg.Ticks - 25); err != nil {
		t.Fatal(err)
	}
	if got, want := f.Stats().Fingerprint(), oracle.Fingerprint(); got != want {
		t.Fatalf("lagged restore fingerprint %s, oracle %s", got, want)
	}
}

func TestSessionSnapshotErrors(t *testing.T) {
	f := snapFleet(t, 10)
	before := f.Stats().Fingerprint()

	if err := f.SnapshotSession(detCfg().Sessions+3, &bytes.Buffer{}); err == nil {
		t.Fatal("snapshot of unknown session accepted")
	}

	var buf bytes.Buffer
	if err := f.SnapshotSession(4, &buf); err != nil {
		t.Fatal(err)
	}
	pristine := append([]byte(nil), buf.Bytes()...)

	// Duplicate id: the session still exists.
	if err := f.RestoreSession(bytes.NewReader(pristine)); err == nil || !strings.Contains(err.Error(), "already exists") {
		t.Fatalf("duplicate restore: %v", err)
	}
	// Truncated and garbage streams.
	if err := f.RestoreSession(bytes.NewReader(pristine[:len(pristine)/3])); err == nil {
		t.Fatal("truncated stream accepted")
	}
	if err := f.RestoreSession(bytes.NewReader([]byte("junk"))); err == nil {
		t.Fatal("garbage stream accepted")
	}
	// Wrong wire version surfaces as the typed error.
	var vbuf bytes.Buffer
	if err := gob.NewEncoder(&vbuf).Encode(&sessionEnvelope{Version: snapshotVersion + 2}); err != nil {
		t.Fatal(err)
	}
	var verr *VersionError
	if err := f.RestoreSession(&vbuf); !errors.As(err, &verr) {
		t.Fatalf("future version: %v", err)
	} else if verr.Got != snapshotVersion+2 || verr.Want != snapshotVersion {
		t.Fatalf("VersionError %+v", verr)
	}
	// Snapshot from a differently-configured fleet is rejected.
	other := detCfg()
	other.Seed = 999
	g, err := New(other)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.RunTicks(10); err != nil {
		t.Fatal(err)
	}
	var obuf bytes.Buffer
	if err := g.SnapshotSession(4, &obuf); err != nil {
		t.Fatal(err)
	}
	if err := f.RestoreSession(&obuf); err == nil || !strings.Contains(err.Error(), "does not match") {
		t.Fatalf("meta mismatch: %v", err)
	}
	// A snapshot claiming an absurd RNG draw count is rejected instead of
	// spinning the generator fast-forward (FuzzSnapshotRestore regression).
	var env sessionEnvelope
	if err := gob.NewDecoder(bytes.NewReader(pristine)).Decode(&env); err != nil {
		t.Fatal(err)
	}
	if err := f.RemoveSession(4); err != nil {
		t.Fatal(err)
	}
	env.State.Draws = 1 << 60
	var dbuf bytes.Buffer
	if err := gob.NewEncoder(&dbuf).Encode(&env); err != nil {
		t.Fatal(err)
	}
	if err := f.RestoreSession(&dbuf); err == nil || !strings.Contains(err.Error(), "RNG draws") {
		t.Fatalf("absurd draw count: %v", err)
	}
	if err := f.RestoreSession(bytes.NewReader(pristine)); err != nil {
		t.Fatal(err)
	}

	if got := f.Stats().Fingerprint(); got != before {
		t.Fatalf("error paths mutated the fleet: %s -> %s", before, got)
	}
}

// TestShardSnapshotRoundTrip: Restore validates every shard envelope of
// a fleet snapshot against its stripe — two envelopes swapped inside an
// otherwise intact snapshot are rejected without touching the fleet — and
// the pristine in-place restore is invisible.
func TestShardSnapshotRoundTrip(t *testing.T) {
	cfg := detCfg()
	oracle, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	f := snapFleet(t, 25)
	var buf bytes.Buffer
	if err := f.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	pristine := append([]byte(nil), buf.Bytes()...)
	var env fleetEnvelope
	if err := gob.NewDecoder(bytes.NewReader(pristine)).Decode(&env); err != nil {
		t.Fatal(err)
	}
	env.Shards[2], env.Shards[3] = env.Shards[3], env.Shards[2]
	var swapped bytes.Buffer
	if err := gob.NewEncoder(&swapped).Encode(&env); err != nil {
		t.Fatal(err)
	}
	before := f.Stats().Fingerprint()
	if err := f.Restore(&swapped); err == nil || !strings.Contains(err.Error(), "stripe") {
		t.Fatalf("swapped shard envelopes: %v", err)
	}
	if got := f.Stats().Fingerprint(); got != before {
		t.Fatalf("failed Restore mutated the fleet: %s -> %s", before, got)
	}
	if err := f.Restore(bytes.NewReader(pristine)); err != nil {
		t.Fatal(err)
	}
	if _, err := f.RunTicks(cfg.Ticks - 25); err != nil {
		t.Fatal(err)
	}
	if got, want := f.Stats().Fingerprint(), oracle.Fingerprint(); got != want {
		t.Fatalf("shard round trip fingerprint %s, oracle %s", got, want)
	}
}

// TestDropsSurviveRestore: a fleet's backpressure and late drops are
// shard accounting the snapshot carries, so a restored fleet reports the
// same Drops, LateDrops and fingerprint as the one it was taken from.
func TestDropsSurviveRestore(t *testing.T) {
	cfg := Config{Sessions: 2, Shards: 1, QueueDepth: 1}
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// No Start: the depth-1 queue admits the first of five, drops four.
	x := make([]float64, FeatureDim)
	for i := 0; i < 5; i++ {
		if err := observe(f, 0, time.Second, x); err != nil && !errors.Is(err, ErrBackpressure) {
			t.Fatal(err)
		}
	}
	// The queued row outlives its session: one late drop on drain.
	if err := f.RemoveSession(0); err != nil {
		t.Fatal(err)
	}
	if err := f.Start(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	want := f.Stats()
	if want.Drops != 4 || want.LateDrops != 1 {
		t.Fatalf("drops %d late %d, want 4 and 1", want.Drops, want.LateDrops)
	}
	var buf bytes.Buffer
	if err := f.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	fresh, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := fresh.Restore(&buf); err != nil {
		t.Fatal(err)
	}
	got := fresh.Stats()
	if got.Drops != want.Drops || got.LateDrops != want.LateDrops {
		t.Errorf("restored drops %d late %d, want %d and %d", got.Drops, got.LateDrops, want.Drops, want.LateDrops)
	}
	if got.Fingerprint() != want.Fingerprint() {
		t.Errorf("restored fingerprint %s, want %s", got.Fingerprint(), want.Fingerprint())
	}
}

// TestFleetSnapshotMigration is the hot-restart story: snapshot a running
// fleet, build a brand-new one from the same config in a "fresh process",
// restore, continue — the composite run equals the uninterrupted one.
func TestFleetSnapshotMigration(t *testing.T) {
	cfg := detCfg()
	oracle, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	f := snapFleet(t, 20)
	var buf bytes.Buffer
	if err := f.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	fresh, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := fresh.Restore(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := fresh.RunTicks(cfg.Ticks - 20); err != nil {
		t.Fatal(err)
	}
	if got, want := fresh.Stats().Fingerprint(), oracle.Fingerprint(); got != want {
		t.Fatalf("migrated fingerprint %s, oracle %s", got, want)
	}
}

func TestFleetRestoreErrors(t *testing.T) {
	f := snapFleet(t, 10)
	var buf bytes.Buffer
	if err := f.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	pristine := append([]byte(nil), buf.Bytes()...)
	before := f.Stats().Fingerprint()

	if err := f.Restore(bytes.NewReader(pristine[:40])); err == nil {
		t.Fatal("truncated fleet snapshot accepted")
	}
	var vbuf bytes.Buffer
	if err := gob.NewEncoder(&vbuf).Encode(&fleetEnvelope{Version: -1}); err != nil {
		t.Fatal(err)
	}
	var verr *VersionError
	if err := f.Restore(&vbuf); !errors.As(err, &verr) {
		t.Fatalf("bad version: %v", err)
	}
	// Shard-count mismatch: same scalars, different stripe layout.
	other := detCfg()
	other.Shards = 3
	g, err := New(other)
	if err != nil {
		t.Fatal(err)
	}
	var obuf bytes.Buffer
	if err := g.Snapshot(&obuf); err != nil {
		t.Fatal(err)
	}
	if err := f.Restore(&obuf); err == nil || !strings.Contains(err.Error(), "does not match") {
		t.Fatalf("shard-count mismatch: %v", err)
	}
	if got := f.Stats().Fingerprint(); got != before {
		t.Fatalf("error paths mutated the fleet: %s -> %s", before, got)
	}

	// A started (live-mode) fleet refuses whole-fleet restore.
	if err := f.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
	}()
	if err := f.Restore(bytes.NewReader(pristine)); err == nil || !strings.Contains(err.Error(), "live") {
		t.Fatalf("restore on live fleet: %v", err)
	}
}

// Version-1 envelopes written by a build whose fleet devices kept their
// lifecycle log: detCfg run 20 ticks, then SnapshotSession(7) and
// Snapshot. Their Trace fields are non-empty.
const (
	tracedSessionEnvelope = "testdata/session-v1-trace.gob"
	tracedFleetEnvelope   = "testdata/fleet-v1-trace.gob"
	// Fingerprints that build recorded: right after restoring either
	// envelope at tick 20, and after running on to detCfg's 50 ticks.
	tracedRestoredFP  = "24f932020f39b6fc1ba7b5b565ff2577bfeba4759222fec001f0e1e5141e9697"
	tracedContinuedFP = "3da22385f77cbd83519498fd0ec777d9ae9fe843644a0bcb7100f36fe96f2528"
)

// TestTracedSnapshotsRestore: v1 envelopes that carry a device trace
// still restore. The trace is dropped, and the fleet restores and runs
// on with the fingerprints of the build that wrote them.
func TestTracedSnapshotsRestore(t *testing.T) {
	cfg := detCfg()
	sess, err := os.ReadFile(tracedSessionEnvelope)
	if err != nil {
		t.Fatal(err)
	}
	whole, err := os.ReadFile(tracedFleetEnvelope)
	if err != nil {
		t.Fatal(err)
	}
	var env sessionEnvelope
	if err := gob.NewDecoder(bytes.NewReader(sess)).Decode(&env); err != nil {
		t.Fatal(err)
	}
	if len(env.State.Device.Trace) == 0 {
		t.Fatalf("%s carries no trace", tracedSessionEnvelope)
	}

	f := snapFleet(t, 20)
	if err := f.RemoveSession(7); err != nil {
		t.Fatal(err)
	}
	if err := f.RestoreSession(bytes.NewReader(sess)); err != nil {
		t.Fatal(err)
	}
	if tr := f.shardOf(7).sessions[7].dev.Trace(); tr != nil {
		t.Fatalf("restored session keeps a trace of %d events", len(tr.Events()))
	}
	check := func(what string, f *Fleet) {
		t.Helper()
		if got := f.Stats().Fingerprint(); got != tracedRestoredFP {
			t.Fatalf("%s restored: fingerprint %s, want %s", what, got, tracedRestoredFP)
		}
		if _, err := f.RunTicks(cfg.Ticks - 20); err != nil {
			t.Fatal(err)
		}
		if got := f.Stats().Fingerprint(); got != tracedContinuedFP {
			t.Fatalf("%s continued: fingerprint %s, want %s", what, got, tracedContinuedFP)
		}
	}
	check("session envelope", f)

	fresh, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := fresh.Restore(bytes.NewReader(whole)); err != nil {
		t.Fatal(err)
	}
	check("fleet envelope", fresh)
}

// TestSessionEnvelopeCarriesNoTrace: fleet devices keep no lifecycle
// log, so a session envelope's device trace is empty even after launches.
func TestSessionEnvelopeCarriesNoTrace(t *testing.T) {
	f := snapFleet(t, 20)
	var buf bytes.Buffer
	if err := f.SnapshotSession(7, &buf); err != nil {
		t.Fatal(err)
	}
	var env sessionEnvelope
	if err := gob.NewDecoder(&buf).Decode(&env); err != nil {
		t.Fatal(err)
	}
	if env.State.Device.Metrics.Launches == 0 {
		t.Fatal("session 7 launched no apps")
	}
	if n := len(env.State.Device.Trace); n != 0 {
		t.Fatalf("session envelope carries %d trace events", n)
	}
}
