package fleet

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"sort"
	"time"

	"affectedge/internal/emotion"
	"affectedge/internal/parallel"
)

// Stats aggregates a fleet over every session: the manager-side control
// counters and the device-side Fig-10 measurements, plus the batching and
// backpressure behavior of the serving plane. All fields except WallTime
// are deterministic for a deterministic run (see Fingerprint).
type Stats struct {
	Sessions        int           `json:"sessions"`
	Shards          int           `json:"shards"`
	Ticks           int           `json:"ticks"`
	VirtualDuration time.Duration `json:"virtual_duration_ns"`

	// Control plane (summed over session managers).
	Observations      int64 `json:"observations"`
	Discarded         int64 `json:"discarded"`
	AttentionSwitches int64 `json:"attention_switches"`
	MoodSwitches      int64 `json:"mood_switches"`
	ModeSwitches      int64 `json:"mode_switches"`

	// Device plane (summed over session devices; PeakRAM is the max).
	Launches      int64         `json:"launches"`
	ColdStarts    int64         `json:"cold_starts"`
	WarmStarts    int64         `json:"warm_starts"`
	BytesLoaded   int64         `json:"bytes_loaded"`
	LoadingTime   time.Duration `json:"loading_time_ns"`
	Kills         int64         `json:"kills"`
	KillsByLimit  int64         `json:"kills_by_limit"`
	KillsByMemory int64         `json:"kills_by_memory"`
	PeakRAM       int64         `json:"peak_ram_bytes"`

	// Serving plane. Batches counts inference rounds and BatchRows the
	// classified rows, so BatchRows/Batches is the realized coalescing
	// factor. Drops and LateDrops are live-path only (always zero for
	// deterministic runs).
	Batches      int64 `json:"batches"`
	BatchRows    int64 `json:"batch_rows"`
	MaxBatchRows int   `json:"max_batch_rows"`
	Drops        int64 `json:"drops"`
	LateDrops    int64 `json:"late_drops"`

	// Video probe plane (deterministic runs with Config.VideoEvery > 0).
	// VideoDecodes counts per-session probe decodes, VideoFrames the
	// frames they produced (decoded plus concealed), and VideoConcealed
	// the concealed subset. Deterministic, but excluded from Fingerprint:
	// the fingerprint field list is frozen by pinned golden values, and
	// the probe never writes session state, so runs differing only in
	// VideoEvery fingerprint identically (see TestVideoProbeTransparent).
	VideoDecodes   int64 `json:"video_decodes"`
	VideoFrames    int64 `json:"video_frames"`
	VideoConcealed int64 `json:"video_concealed"`

	// WallTime is real elapsed time; excluded from Fingerprint.
	WallTime time.Duration `json:"wall_time_ns"`
}

// Fingerprint hashes the frozen deterministic field list, little-endian,
// in struct order. Two runs with the same Config produce the same
// fingerprint at any parallel.SetWorkers count and with either inference
// granularity — the integer kernels make batched and row-at-a-time
// evaluation bitwise identical. WallTime and the video probe
// counters stay outside the hash: the list was frozen before the probe
// existed, and the probe is read-only on fingerprinted state.
func (s *Stats) Fingerprint() string {
	h := sha256.New()
	var b [8]byte
	put := func(vals ...int64) {
		for _, v := range vals {
			binary.LittleEndian.PutUint64(b[:], uint64(v))
			h.Write(b[:])
		}
	}
	put(int64(s.Sessions), int64(s.Shards), int64(s.Ticks), int64(s.VirtualDuration),
		s.Observations, s.Discarded,
		s.AttentionSwitches, s.MoodSwitches, s.ModeSwitches,
		s.Launches, s.ColdStarts, s.WarmStarts,
		s.BytesLoaded, int64(s.LoadingTime),
		s.Kills, s.KillsByLimit, s.KillsByMemory, s.PeakRAM,
		s.Batches, s.BatchRows, int64(s.MaxBatchRows),
		s.Drops, s.LateDrops)
	return hex.EncodeToString(h.Sum(nil))
}

// Run builds a fleet from cfg and advances it cfg.Ticks deterministic
// rounds. The result is bit-identical at any worker count: shards are
// independent (sessions never interact across shards), each shard's
// sessions advance in sorted-id order, and every session's RNG is
// sub-seeded from (Seed, id) alone.
func Run(cfg Config) (*Stats, error) {
	start := time.Now()
	f, err := New(cfg)
	if err != nil {
		return nil, err
	}
	st, err := f.RunTicks(f.cfg.Ticks)
	if err != nil {
		return nil, err
	}
	st.WallTime = time.Since(start)
	return st, nil
}

// RunTicks advances the deterministic simulation by ticks observation
// rounds, fanning shards out over the internal/parallel pool, and returns
// a stats snapshot. Successive calls continue virtual time. Not valid on
// a started (live-mode) or closed fleet.
func (f *Fleet) RunTicks(ticks int) (*Stats, error) {
	if f.started.Load() {
		return nil, errors.New("fleet: deterministic run on a live (started) fleet")
	}
	if f.closed.Load() {
		return nil, ErrClosed
	}
	if ticks < 0 {
		return nil, fmt.Errorf("fleet: %d ticks", ticks)
	}
	base := f.base
	err := parallel.ForEach(len(f.shards), func(i int) error {
		sh := f.shards[i]
		for t := 0; t < ticks; t++ {
			if err := sh.tick(base + t); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	f.base += ticks
	return f.Stats(), nil
}

// tick advances every session on the shard one observation round: step the
// latent emotion, synthesize the feature vector, classify the whole shard
// in one coalesced int8 batch, then feed each session's control loop and
// app-launch schedule. Runs single-goroutine per shard; no locking needed
// beyond the ForEach partition.
func (sh *shard) tick(t int) error {
	m := len(sh.order)
	if m+len(sh.parked) == 0 {
		return nil
	}
	dim := sh.f.cfg.FeatureDim
	now := sh.f.cfg.TickEvery * time.Duration(t+1)
	if m > 0 {
		sh.feat = growFloats(sh.feat, m*dim)
		sh.batch = sh.batch[:0]
		for k, id := range sh.order {
			s := sh.sessions[id]
			s.stepLatent(t, sh.f.cfg.SwitchEvery)
			if err := sh.ingestRow(sh.feat[k*dim:(k+1)*dim], s); err != nil {
				return err
			}
			sh.batch = append(sh.batch, s)
		}
		if err := sh.infer(0, m); err != nil {
			return err
		}
		classes := len(sh.f.stream.Protos)
		for k, s := range sh.batch {
			if err := sh.applyRow(s, now, sh.logits[k*classes:(k+1)*classes]); err != nil {
				return err
			}
			if err := s.maybeLaunch(sh, t, now); err != nil {
				return err
			}
		}
		if ve := sh.f.cfg.VideoEvery; ve > 0 && (t+1)%ve == 0 {
			if err := sh.probeVideo(); err != nil {
				return err
			}
		}
	}
	// Logical accounting over the whole population (live plus parked):
	// Batches and MaxBatchRows count the round as if nobody were parked,
	// and catch-up replay backfills the missing BatchRows, which is what
	// keeps Stats.Fingerprint bit-stable under any churn schedule.
	sh.countBatch(m, m+len(sh.parked))
	return nil
}

// ingestRow synthesizes s's next observation into dst.
func (sh *shard) ingestRow(dst []float64, s *session) error {
	return sh.f.stream.Sample(dst, s.latent, sh.f.cfg.Noise, s.rng)
}

// stepLatent advances the session's hidden emotional state: at the
// scheduled tick it jumps to a uniformly random label and draws the next
// dwell time (mean switchEvery ticks).
func (s *session) stepLatent(t, switchEvery int) {
	if t >= s.nextSwitch {
		s.latent = emotion.Label(s.rng.Intn(emotion.NumLabels))
		s.nextSwitch = t + 1 + s.rng.Intn(2*switchEvery)
	}
}

// maybeLaunch fires the session's app-launch schedule: at the scheduled
// tick it foregrounds an app picked by the traffic model from the shard's
// catalog (mean gap LaunchEvery ticks under the default model), exercising
// the device's cold/warm start paths and — under memory pressure — its
// mood-ranked kill policy. Both draws go through the session RNG, so the
// schedule is deterministic and replayable.
func (s *session) maybeLaunch(sh *shard, t int, now time.Duration) error {
	if t < s.nextLaunch {
		return nil
	}
	f := sh.f
	app := f.cfg.Traffic.PickApp(s.rng, sh.apps, t)
	if _, err := s.dev.Launch(now, app); err != nil {
		return err
	}
	s.nextLaunch = t + f.cfg.Traffic.NextGap(s.rng, f.cfg.LaunchEvery, t)
	return nil
}

// Stats snapshots the fleet's aggregate state. Safe concurrently with the
// live path (locks each shard in turn); on the deterministic path it is
// called between RunTicks rounds. Aggregation is order-independent (sums
// and maxima), so snapshots are deterministic regardless of shard count.
func (f *Fleet) Stats() *Stats {
	st := &Stats{
		Shards:          len(f.shards),
		Ticks:           f.base,
		VirtualDuration: f.cfg.TickEvery * time.Duration(f.base),
	}
	accumulate := func(s *session) {
		observed, discarded := s.mgr.Stats()
		st.Observations += int64(observed)
		st.Discarded += int64(discarded)
		attn, mood, mode := s.mgr.Switches()
		st.AttentionSwitches += int64(attn)
		st.MoodSwitches += int64(mood)
		st.ModeSwitches += int64(mode)
		dm := s.dev.Metrics()
		st.Launches += int64(dm.Launches)
		st.ColdStarts += int64(dm.ColdStarts)
		st.WarmStarts += int64(dm.WarmStarts)
		st.BytesLoaded += dm.BytesLoaded
		st.LoadingTime += dm.LoadingTime
		st.Kills += int64(dm.Kills)
		st.KillsByLimit += int64(dm.KillsByLimit)
		st.KillsByMemory += int64(dm.KillsByMemory)
		if dm.PeakRAM > st.PeakRAM {
			st.PeakRAM = dm.PeakRAM
		}
	}
	for _, sh := range f.shards {
		sh.mu.Lock()
		st.Sessions += len(sh.sessions) + len(sh.parked)
		st.Batches += sh.batches
		st.BatchRows += sh.batchRows
		if sh.maxRows > st.MaxBatchRows {
			st.MaxBatchRows = sh.maxRows
		}
		st.VideoDecodes += sh.videoDecodes
		st.VideoFrames += sh.videoFrames
		st.VideoConcealed += sh.videoConcealed
		st.Drops += sh.drops.Value()
		st.LateDrops += sh.late.Value()
		for _, id := range sh.order {
			accumulate(sh.sessions[id])
		}
		// Parked sessions still count; sums are order-independent, but
		// iterate sorted anyway so debug walks are reproducible.
		parked := make([]int, 0, len(sh.parked))
		for id := range sh.parked {
			parked = append(parked, id)
		}
		sort.Ints(parked)
		for _, id := range parked {
			accumulate(sh.parked[id])
		}
		sh.mu.Unlock()
	}
	return st
}
