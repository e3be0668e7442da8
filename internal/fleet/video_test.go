package fleet

import (
	"bytes"
	"testing"

	"affectedge/internal/parallel"
)

// videoCfg keeps the probe cheap: a 4-frame QCIF clip every 2 ticks over
// 6 sessions, with fast latent switching so sessions actually visit
// different decoder modes during the run.
func videoCfg() Config {
	return Config{
		Sessions:    6,
		Shards:      3,
		Ticks:       10,
		Seed:        42,
		SwitchEvery: 2,
		LaunchEvery: 5,
		VideoEvery:  2,
		VideoFrames: 4,
	}
}

// TestVideoProbeCounts pins the probe schedule: every session decodes the
// clip on every VideoEvery-th tick, and each decode accounts for the full
// display timeline (decoded + concealed frames = clip length).
func TestVideoProbeCounts(t *testing.T) {
	cfg := videoCfg()
	st, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rounds := cfg.Ticks / cfg.VideoEvery
	wantDecodes := int64(cfg.Sessions * rounds)
	if st.VideoDecodes != wantDecodes {
		t.Errorf("video decodes %d, want %d", st.VideoDecodes, wantDecodes)
	}
	if want := wantDecodes * int64(cfg.VideoFrames); st.VideoFrames != want {
		t.Errorf("video frames %d, want %d", st.VideoFrames, want)
	}
	if st.VideoConcealed < 0 || st.VideoConcealed > st.VideoFrames {
		t.Errorf("video concealed %d outside [0,%d]", st.VideoConcealed, st.VideoFrames)
	}
}

// TestVideoAccountingSurvivesRestore: the shard's own fields are the one
// store of the probe counters and the fleet envelope carries them, so a
// run snapshotted mid-way and restored into a fresh fleet ends with Stats
// equal to the uninterrupted run's, field for field (WallTime aside).
// Fingerprint leaves the video counters out, so this pins them across a
// restore.
func TestVideoAccountingSurvivesRestore(t *testing.T) {
	cfg := videoCfg()
	oracle, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const cut = 5
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.RunTicks(cut); err != nil {
		t.Fatal(err)
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
	st, err := fresh.RunTicks(cfg.Ticks - cut)
	if err != nil {
		t.Fatal(err)
	}
	st.WallTime, oracle.WallTime = 0, 0
	if *st != *oracle {
		t.Fatalf("restored run stats differ:\nrestored %+v\noracle   %+v", *st, *oracle)
	}
	if st.VideoDecodes == 0 {
		t.Fatal("probe never ran")
	}
}

// TestVideoProbeDeterministicAcrossWorkers extends the repository-wide
// determinism contract to the video plane: the probe counters — which are
// outside the fingerprint — must themselves be bit-identical at any worker
// count.
func TestVideoProbeDeterministicAcrossWorkers(t *testing.T) {
	type triple struct{ d, f, c int64 }
	got := map[int]triple{}
	fps := map[int]string{}
	for _, workers := range []int{1, 8} {
		defer parallel.SetWorkers(parallel.SetWorkers(workers))
		st, err := Run(videoCfg())
		if err != nil {
			t.Fatal(err)
		}
		got[workers] = triple{st.VideoDecodes, st.VideoFrames, st.VideoConcealed}
		fps[workers] = st.Fingerprint()
	}
	if got[1] != got[8] {
		t.Errorf("video counters diverge across workers: %+v vs %+v", got[1], got[8])
	}
	if fps[1] != fps[8] {
		t.Errorf("fingerprints diverge across workers: %v", fps)
	}
}

// TestVideoProbeTransparent pins that the probe is read-only on session
// state: a run with the probe enabled fingerprints identically to the same
// run with it off. This is what lets the video counters live outside the
// frozen fingerprint field list.
func TestVideoProbeTransparent(t *testing.T) {
	on, err := Run(videoCfg())
	if err != nil {
		t.Fatal(err)
	}
	cfg := videoCfg()
	cfg.VideoEvery = 0
	off, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if on.Fingerprint() != off.Fingerprint() {
		t.Fatalf("probe perturbed the run:\non  %+v\noff %+v", on, off)
	}
	if off.VideoDecodes != 0 || off.VideoFrames != 0 || off.VideoConcealed != 0 {
		t.Errorf("probe disabled but counters nonzero: %+v", off)
	}
	if on.VideoDecodes == 0 {
		t.Error("probe enabled but no decodes recorded")
	}
}

// TestVideoConfigValidation covers the probe's Normalize paths.
func TestVideoConfigValidation(t *testing.T) {
	cfg := videoCfg()
	cfg.VideoEvery = -1
	if _, err := New(cfg); err == nil {
		t.Error("negative VideoEvery accepted")
	}
	cfg = videoCfg()
	cfg.VideoFrames = 0
	n, err := cfg.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if n.VideoFrames != 6 {
		t.Errorf("VideoFrames default %d, want 6", n.VideoFrames)
	}
}
