package fleet

import (
	"testing"

	"affectedge/internal/parallel"
)

// detCfg is large enough to stripe unevenly and exercise switches, kills,
// and discards, small enough for -short.
func detCfg() Config {
	return Config{
		Sessions:    60,
		Shards:      6,
		Ticks:       50,
		Seed:        7,
		LaunchEvery: 5,
	}
}

// TestDeterminismAcrossWorkers pins the repository-wide contract for the
// fleet: a simulated run is bit-identical at any parallel worker count,
// because shards are independent, sessions advance in sorted-id order, and
// every RNG is sub-seeded from (Seed, id) alone.
func TestDeterminismAcrossWorkers(t *testing.T) {
	fps := map[int]string{}
	for _, workers := range []int{1, 2, 8} {
		defer parallel.SetWorkers(parallel.SetWorkers(workers))
		st, err := Run(detCfg())
		if err != nil {
			t.Fatal(err)
		}
		fps[workers] = st.Fingerprint()
	}
	if fps[1] != fps[2] || fps[1] != fps[8] {
		t.Fatalf("fingerprints diverge across worker counts: %v", fps)
	}
}

// TestDeterminismBatchedVsSerial pins that coalesced batched inference is
// bitwise identical to per-session serial evaluation: the int8 kernels
// accumulate in exact integer arithmetic and share the dequant path, so
// batching is purely a throughput decision.
func TestDeterminismBatchedVsSerial(t *testing.T) {
	batched, err := Run(detCfg())
	if err != nil {
		t.Fatal(err)
	}
	f, err := New(detCfg())
	if err != nil {
		t.Fatal(err)
	}
	serialInfer(f)
	serial, err := f.RunTicks(detCfg().Ticks)
	if err != nil {
		t.Fatal(err)
	}
	if b, s := batched.Fingerprint(), serial.Fingerprint(); b != s {
		t.Fatalf("batched fingerprint %s != serial %s\nbatched %+v\nserial  %+v", b, s, batched, serial)
	}
}

// TestDeterminismResumedTicks pins that virtual time composes: one 50-tick
// run equals a 20-tick run resumed for 30 more.
func TestDeterminismResumedTicks(t *testing.T) {
	whole, err := Run(detCfg())
	if err != nil {
		t.Fatal(err)
	}
	f, err := New(detCfg())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.RunTicks(20); err != nil {
		t.Fatal(err)
	}
	split, err := f.RunTicks(30)
	if err != nil {
		t.Fatal(err)
	}
	if w, s := whole.Fingerprint(), split.Fingerprint(); w != s {
		t.Fatalf("50 ticks %s != 20+30 ticks %s", w, s)
	}
}

// TestDeterminismSeedSensitivity: different seeds must explore different
// trajectories — a constant fingerprint would mean the seed is dead.
func TestDeterminismSeedSensitivity(t *testing.T) {
	a, err := Run(detCfg())
	if err != nil {
		t.Fatal(err)
	}
	cfg := detCfg()
	cfg.Seed = 8
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Fingerprint() == b.Fingerprint() {
		t.Fatal("seeds 7 and 8 produced identical runs")
	}
}
