package fleet

import (
	"encoding/gob"
	"fmt"
	"io"
	"math/rand"
	"sort"
	"time"

	"affectedge/internal/android"
	"affectedge/internal/core"
	"affectedge/internal/emotion"
)

// Snapshot/restore: gob envelopes carrying full session state — the
// manager's hidden control-loop state, the device's process table and
// metrics, the latent emotion schedule, and the RNG draw count — for hot
// restart (Snapshot/Restore) and session migration
// (SnapshotSession/RestoreSession). Every envelope is versioned
// and records the configuration summary the state is only meaningful
// under; restores validate the whole envelope and build every session
// before committing anything, so a corrupt or mismatched snapshot errors
// cleanly and never half-applies (FuzzSnapshotRestore pins this). A
// restored fleet continues on the bit-exact trajectory of the original:
// snapshot → restore round trips are fingerprint-identical.
//
// Like the rest of the deterministic API, call these between RunTicks
// rounds.

// snapshotVersion is the wire version of the session and fleet envelopes
// (a fleet envelope's shard envelopes share it). Bump it whenever any
// serialized field set changes meaning.
const snapshotVersion = 1

// maxDrawsPerTick bounds how many RNG draws a snapshot may claim per
// elapsed tick. A real session draws on the order of FeatureDim values per
// round (plus geometrically-bounded rejection resamples), so 2^16 is
// unreachable legitimately — but restore fast-forwards the generator one
// step per claimed draw, and without a bound a corrupted count of ~2^64
// turns RestoreSession into an unbounded spin (found by
// FuzzSnapshotRestore).
const maxDrawsPerTick = 1 << 16

// VersionError reports a snapshot envelope whose wire version does not
// match what this build reads.
type VersionError struct {
	Got, Want int
}

func (e *VersionError) Error() string {
	return fmt.Sprintf("fleet: snapshot version %d, want %d", e.Got, e.Want)
}

// snapMeta is the configuration summary a snapshot is only meaningful
// under: everything that shapes a session's deterministic trajectory.
// Restores reject a mismatch. Comparable by design.
type snapMeta struct {
	Seed        int64
	SwitchEvery int
	LaunchEvery int
	TickEvery   time.Duration
	Shards      int
	Traffic     string
}

func (f *Fleet) meta() snapMeta {
	return snapMeta{
		Seed:        f.cfg.Seed,
		SwitchEvery: f.cfg.SwitchEvery,
		LaunchEvery: f.cfg.LaunchEvery,
		TickEvery:   f.cfg.TickEvery,
		Shards:      len(f.shards),
		Traffic:     f.cfg.Traffic.Name(),
	}
}

// sessionState is one session in exportable form. The RNG is captured as
// its draw count alone: the seed is derivable from (fleet seed, id), and
// the generator advances one step of its recurrence per draw, so seed +
// fast-forward reproduces the exact remaining stream (see sessionSource).
type sessionState struct {
	ID         int
	Ticks      int // deterministic round the session has advanced to
	Draws      uint64
	Latent     emotion.Label
	NextSwitch int
	NextLaunch int
	Parked     bool
	Manager    core.ManagerState
	Device     android.DeviceState
}

// sessionEnvelope is the SnapshotSession wire format.
type sessionEnvelope struct {
	Version int
	Meta    snapMeta
	State   sessionState
}

// shardEnvelope is one shard inside a fleet snapshot (the fleet envelope
// carries the version and meta): the shard's whole session population
// plus its serving-plane accounting — the one store of its batch, probe
// and drop counts — so a restored shard's Stats contribution is identical
// to the original's.
type shardEnvelope struct {
	Shard    int // stripe index; ids must map here
	Base     int // fleet tick at snapshot
	Device   android.DeviceConfig
	Sessions []sessionState

	Batches        int64
	BatchRows      int64
	MaxRows        int
	VideoDecodes   int64
	VideoFrames    int64
	VideoConcealed int64
	Drops          int64
	LateDrops      int64
}

// fleetEnvelope is the whole-fleet Snapshot wire format.
type fleetEnvelope struct {
	Version int
	Meta    snapMeta
	Base    int
	Shards  []shardEnvelope
}

// captureSession exports s. live distinguishes a session in the batch
// order (implicitly at the fleet tick) from a parked one (frozen at its
// own tick). Caller holds the shard lock.
func (f *Fleet) captureSession(s *session, live bool) sessionState {
	ticks := s.ticks
	if live {
		ticks = f.base
	}
	return sessionState{
		ID:         s.id,
		Ticks:      ticks,
		Draws:      s.src.draws(),
		Latent:     s.latent,
		NextSwitch: s.nextSwitch,
		NextLaunch: s.nextLaunch,
		Parked:     !live,
		Manager:    s.mgr.ExportState(),
		Device:     s.dev.ExportState(),
	}
}

// buildSession reconstructs a session from its exported state, validating
// everything against the target shard: id striping, tick bounds, enum
// ranges, manager and device state. Nothing is shared with the envelope
// and nothing fleet-visible is mutated — the caller commits the result.
func (f *Fleet) buildSession(sh *shard, st sessionState, base int) (*session, error) {
	if st.ID < 0 {
		return nil, fmt.Errorf("fleet: snapshot session id %d", st.ID)
	}
	if f.shardOf(st.ID) != sh {
		return nil, fmt.Errorf("fleet: snapshot session %d does not stripe onto shard %d", st.ID, sh.idx)
	}
	if st.Ticks < 0 || st.Ticks > base {
		return nil, fmt.Errorf("fleet: snapshot session %d at tick %d, fleet at %d", st.ID, st.Ticks, base)
	}
	if !st.Latent.Valid() {
		return nil, fmt.Errorf("fleet: snapshot session %d latent %d out of range", st.ID, int(st.Latent))
	}
	if st.NextSwitch < 0 || st.NextLaunch < 0 {
		return nil, fmt.Errorf("fleet: snapshot session %d has negative schedule", st.ID)
	}
	if st.Draws > (uint64(base)+2)*maxDrawsPerTick {
		return nil, fmt.Errorf("fleet: snapshot session %d claims %d RNG draws by tick %d", st.ID, st.Draws, base)
	}
	mgr, err := newManager()
	if err != nil {
		return nil, err
	}
	if err := mgr.ImportState(st.Manager); err != nil {
		return nil, fmt.Errorf("fleet: snapshot session %d: %w", st.ID, err)
	}
	dev, err := android.NewUnloggedDevice(sh.devcfg, f.policy)
	if err != nil {
		return nil, err
	}
	if err := dev.ImportState(st.Device); err != nil {
		return nil, fmt.Errorf("fleet: snapshot session %d: %w", st.ID, err)
	}
	src := newSessionSource(sessionSeed(f.cfg.Seed, st.ID))
	src.skip(st.Draws)
	return &session{
		id:         st.ID,
		rng:        rand.New(src),
		src:        src,
		mgr:        mgr,
		dev:        dev,
		latent:     st.Latent,
		nextSwitch: st.NextSwitch,
		nextLaunch: st.NextLaunch,
		ticks:      st.Ticks,
	}, nil
}

// SnapshotSession writes session id (connected or disconnected) to w as a
// versioned gob envelope. The session is not disturbed; pair with
// RemoveSession to migrate it out.
func (f *Fleet) SnapshotSession(id int, w io.Writer) error {
	sh := f.shardOf(id)
	sh.mu.Lock()
	var env sessionEnvelope
	if s, ok := sh.sessions[id]; ok {
		env = sessionEnvelope{Version: snapshotVersion, Meta: f.meta(), State: f.captureSession(s, true)}
	} else if s, ok := sh.parked[id]; ok {
		env = sessionEnvelope{Version: snapshotVersion, Meta: f.meta(), State: f.captureSession(s, false)}
	} else {
		sh.mu.Unlock()
		return fmt.Errorf("%w %d", ErrUnknownSession, id)
	}
	sh.mu.Unlock()
	if err := gob.NewEncoder(w).Encode(&env); err != nil {
		return err
	}
	f.m.snapshots.Inc()
	return nil
}

// RestoreSession installs a session previously written by SnapshotSession.
// The id must not currently exist (remove it first when round-tripping in
// place). A session snapshotted live at an earlier fleet tick is caught up
// to the current tick before it rejoins the batch order; a parked snapshot
// stays parked until Reconnect. Fails — mutating nothing — on a corrupt
// stream, wrong version (*VersionError), configuration mismatch, or
// invalid state.
func (f *Fleet) RestoreSession(r io.Reader) error {
	if f.closed.Load() {
		return ErrClosed
	}
	var env sessionEnvelope
	if err := gob.NewDecoder(r).Decode(&env); err != nil {
		return fmt.Errorf("fleet: session snapshot decode: %w", err)
	}
	if env.Version != snapshotVersion {
		return &VersionError{Got: env.Version, Want: snapshotVersion}
	}
	if env.Meta != f.meta() {
		return fmt.Errorf("fleet: session snapshot config %+v does not match fleet %+v", env.Meta, f.meta())
	}
	if env.State.ID < 0 {
		return fmt.Errorf("fleet: snapshot session id %d", env.State.ID)
	}
	sh := f.shardOf(env.State.ID)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	id := env.State.ID
	if _, dup := sh.sessions[id]; dup {
		return fmt.Errorf("fleet: session %d already exists", id)
	}
	if _, dup := sh.parked[id]; dup {
		return fmt.Errorf("fleet: session %d already exists (disconnected)", id)
	}
	s, err := f.buildSession(sh, env.State, f.base)
	if err != nil {
		return err
	}
	if env.State.Parked {
		sh.parked[id] = s
	} else {
		if err := sh.catchUp(s, f.base); err != nil {
			return err
		}
		sh.insert(s)
	}
	f.m.restores.Inc()
	f.m.sessions.Add(1)
	return nil
}

// captureShard exports sh's whole population and accounting. Caller holds
// the shard lock.
func (f *Fleet) captureShard(sh *shard) shardEnvelope {
	env := shardEnvelope{
		Shard:          sh.idx,
		Base:           f.base,
		Device:         sh.devcfg,
		Batches:        sh.batches,
		BatchRows:      sh.batchRows,
		MaxRows:        sh.maxRows,
		VideoDecodes:   sh.videoDecodes,
		VideoFrames:    sh.videoFrames,
		VideoConcealed: sh.videoConcealed,
		Drops:          sh.drops.Load(),
		LateDrops:      sh.late,
	}
	for _, s := range sh.order {
		env.Sessions = append(env.Sessions, f.captureSession(s, true))
	}
	parked := make([]int, 0, len(sh.parked))
	for id := range sh.parked {
		parked = append(parked, id)
	}
	sort.Ints(parked)
	for _, id := range parked {
		env.Sessions = append(env.Sessions, f.captureSession(sh.parked[id], false))
	}
	return env
}

// validateShardEnvelope checks an envelope against target shard sh and
// builds its sessions without committing anything.
func (f *Fleet) validateShardEnvelope(sh *shard, env *shardEnvelope, base int) (live, parked []*session, err error) {
	if env.Shard != sh.idx {
		return nil, nil, fmt.Errorf("fleet: shard snapshot for stripe %d, want %d", env.Shard, sh.idx)
	}
	if env.Device != sh.devcfg {
		return nil, nil, fmt.Errorf("fleet: shard snapshot device class %+v does not match shard %+v", env.Device, sh.devcfg)
	}
	if env.Batches < 0 || env.BatchRows < 0 || env.MaxRows < 0 || env.Drops < 0 || env.LateDrops < 0 {
		return nil, nil, fmt.Errorf("fleet: shard snapshot has negative accounting")
	}
	seen := map[int]bool{}
	for _, st := range env.Sessions {
		if seen[st.ID] {
			return nil, nil, fmt.Errorf("fleet: shard snapshot has duplicate session %d", st.ID)
		}
		seen[st.ID] = true
		s, err := f.buildSession(sh, st, base)
		if err != nil {
			return nil, nil, err
		}
		if st.Parked {
			parked = append(parked, s)
		} else {
			live = append(live, s)
		}
	}
	return live, parked, nil
}

// commitShard replaces sh's population and accounting with the validated
// envelope contents. Caller holds sh.mu.
func (sh *shard) commitShard(env *shardEnvelope, live, parked []*session) {
	sh.sessions = make(map[int]*session, len(live))
	clear(sh.order) // the backing array must not keep replaced sessions alive
	sh.order = sh.order[:0]
	for _, s := range live {
		sh.insert(s)
	}
	sh.parked = make(map[int]*session, len(parked))
	for _, s := range parked {
		sh.parked[s.id] = s
	}
	sh.batches = env.Batches
	sh.batchRows = env.BatchRows
	sh.maxRows = env.MaxRows
	sh.videoDecodes = env.VideoDecodes
	sh.videoFrames = env.VideoFrames
	sh.videoConcealed = env.VideoConcealed
	sh.drops.Store(env.Drops)
	sh.late = env.LateDrops
}

// Snapshot writes the whole fleet — every shard's population, accounting,
// and the tick clock — to w, for hot restart in a fresh process.
func (f *Fleet) Snapshot(w io.Writer) error {
	env := fleetEnvelope{Version: snapshotVersion, Meta: f.meta(), Base: f.base}
	for _, sh := range f.shards {
		sh.mu.Lock()
		env.Shards = append(env.Shards, f.captureShard(sh))
		sh.mu.Unlock()
	}
	if err := gob.NewEncoder(w).Encode(&env); err != nil {
		return err
	}
	f.m.snapshots.Inc()
	return nil
}

// Restore replaces the fleet's whole population and tick clock with a
// snapshot previously written by Snapshot. The target must be built with
// the same Config (Normalize'd scalars are checked via the envelope meta;
// shard device classes via each shard envelope) and must not be started.
// Everything is validated and built before anything is committed; on
// error the fleet is untouched.
func (f *Fleet) Restore(r io.Reader) error {
	if f.closed.Load() {
		return ErrClosed
	}
	if f.started.Load() {
		return fmt.Errorf("fleet: restore on a live (started) fleet")
	}
	var env fleetEnvelope
	if err := gob.NewDecoder(r).Decode(&env); err != nil {
		return fmt.Errorf("fleet: snapshot decode: %w", err)
	}
	if env.Version != snapshotVersion {
		return &VersionError{Got: env.Version, Want: snapshotVersion}
	}
	if env.Meta != f.meta() {
		return fmt.Errorf("fleet: snapshot config %+v does not match fleet %+v", env.Meta, f.meta())
	}
	if env.Base < 0 {
		return fmt.Errorf("fleet: snapshot at negative tick %d", env.Base)
	}
	if len(env.Shards) != len(f.shards) {
		return fmt.Errorf("fleet: snapshot has %d shards, fleet %d", len(env.Shards), len(f.shards))
	}
	type staged struct {
		live, parked []*session
	}
	stage := make([]staged, len(f.shards))
	for i := range f.shards {
		se := &env.Shards[i]
		if se.Base != env.Base {
			return fmt.Errorf("fleet: shard %d snapshot at tick %d, fleet snapshot at %d", i, se.Base, env.Base)
		}
		live, parked, err := f.validateShardEnvelope(f.shards[i], se, env.Base)
		if err != nil {
			return err
		}
		stage[i] = staged{live, parked}
	}
	var total int64
	for i, sh := range f.shards {
		sh.mu.Lock()
		total -= int64(len(sh.sessions) + len(sh.parked))
		sh.commitShard(&env.Shards[i], stage[i].live, stage[i].parked)
		total += int64(len(stage[i].live) + len(stage[i].parked))
		sh.mu.Unlock()
	}
	f.base = env.Base
	f.m.restores.Inc()
	f.m.sessions.Add(total)
	return nil
}
