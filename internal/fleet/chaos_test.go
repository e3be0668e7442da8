package fleet

import (
	"bytes"
	"encoding/gob"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"affectedge/internal/parallel"
	"affectedge/internal/simd"
)

// Chaos harness: the session-lifecycle determinism contract says that NO
// interleaving of disconnect, reconnect, session/fleet snapshot and
// restore — at any worker count, with or without the vector backend —
// changes a deterministic run's fingerprint, as long as every session is
// connected again when Stats is read. These tests drive randomized
// schedules of exactly those operations against a churn-free oracle run.

func chaosCfg() Config {
	return Config{
		Sessions:    48,
		Shards:      6,
		Ticks:       40,
		Seed:        11,
		SwitchEvery: 8,
		LaunchEvery: 5,
	}
}

// checkGoroutines snapshots the goroutine count and returns a closure that
// fails the test if the count has not returned to the baseline (retrying,
// since worker teardown finishes shortly after Close returns).
func checkGoroutines(t *testing.T) func() {
	t.Helper()
	before := runtime.NumGoroutine()
	return func() {
		t.Helper()
		var after int
		for i := 0; i < 100; i++ {
			after = runtime.NumGoroutine()
			if after <= before {
				return
			}
			time.Sleep(10 * time.Millisecond)
		}
		t.Errorf("goroutine leak: %d before, %d after", before, after)
	}
}

// chaosRun advances cfg.Ticks rounds one at a time, injecting a seeded
// random schedule of lifecycle and snapshot operations between rounds:
// disconnects, reconnects, session snapshot→remove→restore round trips,
// in-place whole-fleet round trips, and occasional whole-fleet migrations
// onto a freshly built fleet. Every parked session reconnects before the
// final Stats, so the result must match the churn-free run bit for bit.
func chaosRun(t *testing.T, cfg Config, opSeed int64) *Stats {
	t.Helper()
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ops := rand.New(rand.NewSource(opSeed))
	var buf bytes.Buffer
	for tick := 0; tick < cfg.Ticks; tick++ {
		if _, err := f.RunTicks(1); err != nil {
			t.Fatal(err)
		}
		for n := ops.Intn(4); n > 0; n-- {
			id := ops.Intn(cfg.Sessions)
			switch ops.Intn(5) {
			case 0: // toggle connectivity
				if f.Disconnected(id) {
					err = f.Reconnect(id)
				} else {
					err = f.Disconnect(id)
				}
			case 1: // session migration round trip, parked or live
				buf.Reset()
				if err = f.SnapshotSession(id, &buf); err != nil {
					break
				}
				if err = f.RemoveSession(id); err != nil {
					break
				}
				err = f.RestoreSession(&buf)
			case 2: // in-place whole-fleet round trip
				buf.Reset()
				if err = f.Snapshot(&buf); err != nil {
					break
				}
				err = f.Restore(&buf)
			case 3: // whole-fleet migration onto a fresh process image
				buf.Reset()
				if err = f.Snapshot(&buf); err != nil {
					break
				}
				var fresh *Fleet
				if fresh, err = New(cfg); err != nil {
					break
				}
				if err = fresh.Restore(&buf); err != nil {
					break
				}
				f = fresh
			case 4: // park a session across whatever the next ops do
				if !f.Disconnected(id) {
					err = f.Disconnect(id)
				}
			}
			if err != nil {
				t.Fatalf("tick %d: %v", tick, err)
			}
		}
	}
	for id := 0; id < cfg.Sessions; id++ {
		if f.Disconnected(id) {
			if err := f.Reconnect(id); err != nil {
				t.Fatal(err)
			}
		}
	}
	return f.Stats()
}

// TestChurnFingerprintStable is the headline chaos pin: randomized
// churn/snapshot/restore schedules leave the fingerprint bit-identical to
// the churn-free oracle, across worker counts and with the SIMD backend on
// and off.
func TestChurnFingerprintStable(t *testing.T) {
	cfg := chaosCfg()
	for _, workers := range []int{1, 8} {
		for _, vec := range []bool{true, false} {
			defer parallel.SetWorkers(parallel.SetWorkers(workers))
			defer simd.SetEnabled(simd.SetEnabled(vec))
			oracle, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			want := oracle.Fingerprint()
			for _, opSeed := range []int64{1, 2, 3} {
				leak := checkGoroutines(t)
				st := chaosRun(t, cfg, opSeed)
				if got := st.Fingerprint(); got != want {
					t.Fatalf("workers=%d simd=%v opSeed=%d: chaos fingerprint %s, oracle %s\nchaos  %+v\noracle %+v",
						workers, vec, opSeed, got, want, st, oracle)
				}
				leak()
			}
		}
	}
}

// TestChaosLiveLifecycle exercises the lifecycle API on the live serving
// path: disconnects and reconnects race with Observe traffic, a parked
// session rejects observations like an unknown one, and Close still joins
// every worker goroutine.
func TestChaosLiveLifecycle(t *testing.T) {
	leak := checkGoroutines(t)
	cfg := chaosCfg()
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Start(); err != nil {
		t.Fatal(err)
	}
	x := make([]float64, FeatureDim)
	churn := rand.New(rand.NewSource(42))
	for i := 0; i < 400; i++ {
		id := churn.Intn(cfg.Sessions)
		switch churn.Intn(4) {
		case 0:
			if f.Disconnected(id) {
				err = f.Reconnect(id)
			} else {
				err = f.Disconnect(id)
			}
			if err != nil {
				t.Fatal(err)
			}
		case 1: // snapshots may run concurrently with live traffic
			var buf bytes.Buffer
			if err := f.SnapshotSession(id, &buf); err != nil {
				t.Fatal(err)
			}
		default:
			err := observe(f, id, time.Duration(i+1)*time.Millisecond, x)
			if err != nil && f.Disconnected(id) {
				// Parked sessions refuse intake; that's the contract.
				continue
			}
			if err != nil && err != ErrBackpressure {
				t.Fatal(err)
			}
		}
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	leak()
}

// FuzzSnapshotRestore throws arbitrary bytes at both restore entry
// points; Restore validates every shard envelope inside a fleet snapshot.
// The contract under fuzz: never panic, and a failed restore never
// half-applies — the fleet's fingerprint is bit-identical before and
// after any erroring call. Session id 0 is removed from the fixture fleet
// so the pristine session envelope in the seed corpus exercises the
// success path too.
func FuzzSnapshotRestore(fz *testing.F) {
	cfg := Config{
		Sessions:    10,
		Shards:      2,
		Ticks:       6,
		Seed:        5,
		LaunchEvery: 4,
	}
	fl, err := New(cfg)
	if err != nil {
		fz.Fatal(err)
	}
	if _, err := fl.RunTicks(cfg.Ticks); err != nil {
		fz.Fatal(err)
	}
	var session0, whole bytes.Buffer
	if err := fl.SnapshotSession(0, &session0); err != nil {
		fz.Fatal(err)
	}
	if err := fl.RemoveSession(0); err != nil {
		fz.Fatal(err)
	}
	if err := fl.Snapshot(&whole); err != nil {
		fz.Fatal(err)
	}
	// A fleet snapshot with its two shard envelopes swapped: well-formed,
	// but each envelope names the other stripe.
	var env fleetEnvelope
	if err := gob.NewDecoder(bytes.NewReader(whole.Bytes())).Decode(&env); err != nil {
		fz.Fatal(err)
	}
	env.Shards[0], env.Shards[1] = env.Shards[1], env.Shards[0]
	var swapped bytes.Buffer
	if err := gob.NewEncoder(&swapped).Encode(&env); err != nil {
		fz.Fatal(err)
	}
	fz.Add(session0.Bytes())
	fz.Add(swapped.Bytes())
	fz.Add(whole.Bytes())
	fz.Add(session0.Bytes()[:len(session0.Bytes())/2]) // truncated mid-stream
	fz.Add([]byte{})
	fz.Add([]byte("not a gob stream at all"))
	if n := len(whole.Bytes()); n > 40 {
		flipped := append([]byte(nil), whole.Bytes()...)
		flipped[n/2] ^= 0x80
		fz.Add(flipped)
	}
	var futureVer bytes.Buffer
	if err := gob.NewEncoder(&futureVer).Encode(&sessionEnvelope{Version: snapshotVersion + 1}); err != nil {
		fz.Fatal(err)
	}
	fz.Add(futureVer.Bytes())

	fz.Fuzz(func(t *testing.T, data []byte) {
		before := fl.Stats().Fingerprint()
		if err := fl.RestoreSession(bytes.NewReader(data)); err != nil {
			if got := fl.Stats().Fingerprint(); got != before {
				t.Fatalf("failed RestoreSession mutated the fleet: %s -> %s", before, got)
			}
		} else {
			// A restore that decoded and validated is allowed to change the
			// fleet; evict whatever it installed so later inputs start from
			// a restorable population again.
			var env sessionEnvelope
			if derr := gob.NewDecoder(bytes.NewReader(data)).Decode(&env); derr == nil {
				_ = fl.RemoveSession(env.State.ID)
			}
		}
		before = fl.Stats().Fingerprint()
		if err := fl.Restore(bytes.NewReader(data)); err != nil {
			if got := fl.Stats().Fingerprint(); got != before {
				t.Fatalf("failed Restore mutated the fleet: %s -> %s", before, got)
			}
		}
	})
}
