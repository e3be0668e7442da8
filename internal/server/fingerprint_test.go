package server

import (
	"fmt"
	"testing"

	"affectedge/internal/fleet"
	"affectedge/internal/parallel"
)

// TestTCPFingerprintMatchesInProcess: the same seeded traffic driven
// through TCP (HELLO handshakes, frame encode/decode, per-connection
// goroutines, reply queues) with the default client settings and driven
// straight into fleet.ObserveBatch must leave the two fleets with
// identical Stats.Fingerprint — the network path adds no semantics. It
// runs a wider fleet (more sessions and shards) than
// TestBatchedFingerprintGrid, which sweeps batch sizes.
//
// Determinism liturgy: MaxBatch 1 (VerifyConfig) makes the live path's
// batching accounting timing-independent; QueueDepth is sized to a
// shard's whole traffic share (sessions/shard × obs), so a queue can
// never overflow and Drops — a fingerprint field — is structurally zero
// on both sides regardless of how fast producers outrun the shard
// worker; everything else in the fingerprint is per-session state, and
// sessions are closed systems fed identical observation sequences.
func TestTCPFingerprintMatchesInProcess(t *testing.T) {
	const (
		sessions = 48
		shards   = 8
		obs      = 40
		seed     = 777
		trafSeed = 99
		// Every shard serves sessions/shards sessions of obs observations:
		// a queue this deep cannot drop.
		queueDepth = (sessions / shards) * obs
	)
	for _, workers := range []int{1, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			old := parallel.SetWorkers(workers)
			defer parallel.SetWorkers(old)

			load := LoadConfig{Sessions: sessions, Obs: obs, Seed: trafSeed}

			// TCP side.
			fA, err := fleet.New(VerifyConfig(sessions, shards, queueDepth, seed))
			if err != nil {
				t.Fatal(err)
			}
			load.Dim = fA.FeatureDim()
			if err := fA.Start(); err != nil {
				t.Fatal(err)
			}
			srv := New(fA, Config{})
			addr, err := srv.Listen("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			load.Addr = addr.String()
			resA, err := RunLoad(load)
			if err != nil {
				t.Fatalf("RunLoad: %v", err)
			}
			srv.Close()
			fA.Close()
			stA := fA.Stats()

			// In-process side: identical fleet config, identical traffic.
			fB, err := fleet.New(VerifyConfig(sessions, shards, queueDepth, seed))
			if err != nil {
				t.Fatal(err)
			}
			if err := fB.Start(); err != nil {
				t.Fatal(err)
			}
			resB, err := DirectLoad(fB, load)
			if err != nil {
				t.Fatalf("DirectLoad: %v", err)
			}
			fB.Close()
			stB := fB.Stats()

			if resA.Acked != sessions*obs || resB.Acked != sessions*obs {
				t.Fatalf("acked TCP %d direct %d, want %d both", resA.Acked, resB.Acked, sessions*obs)
			}
			if stA.Drops != 0 || stB.Drops != 0 {
				t.Fatalf("drops TCP %d direct %d, want 0 both (fingerprint counts drops)",
					stA.Drops, stB.Drops)
			}
			fpA, fpB := stA.Fingerprint(), stB.Fingerprint()
			if fpA != fpB {
				t.Errorf("fingerprint mismatch:\n  tcp    %s\n  direct %s\n  tcp stats    %+v\n  direct stats %+v",
					fpA, fpB, *stA, *stB)
			}
		})
	}
}
