// Package fleet composes the repository's single-device closed loop into a
// production-shaped serving layer: a sharded, lock-striped session manager
// that runs thousands of simulated device sessions concurrently.
//
// Each session owns the full per-user control stack — a core.Manager with
// hysteresis, decoder-mode selection, and an android.Device driven by the
// Emotional Background Manager — while the expensive part of the loop,
// affect classification, is *shared*: all inference requests arriving at a
// shard are coalesced into one batched int8 nn.QMLP evaluation (simd.QGEMM),
// amortizing the quantized kernels across users exactly the way a serving
// host amortizes an accelerator.
//
// Two execution modes share the same session state:
//
//   - The deterministic simulation path (Run, sim.go): shards advance in
//     lock-step ticks under the internal/parallel pool. Sessions are
//     sub-seeded, shards only touch their own state, and aggregate stats
//     merge in shard order, so a run is bit-identical at any worker count
//     — the repository-wide determinism contract.
//
//   - The live serving path (Start/ObserveBatch/Close): each shard owns a
//     bounded ingress queue and a worker goroutine. ObserveBatch never
//     blocks: an observation that does not fit its shard's queue is
//     dropped, counted, and NACKed with ErrBackpressure. Close stops
//     intake, drains every queue, and joins the workers.
package fleet

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"affectedge/internal/affect"
	"affectedge/internal/android"
	"affectedge/internal/core"
	"affectedge/internal/emotion"
	"affectedge/internal/h264"
	"affectedge/internal/nn"
	"affectedge/internal/obs"
)

// Sentinel errors of the serving API.
var (
	// ErrBackpressure reports a full shard ingress queue; the observation
	// was dropped and counted, and the caller may retry later.
	ErrBackpressure = errors.New("fleet: shard ingress queue full")
	// ErrClosed reports an operation on a closed fleet.
	ErrClosed = errors.New("fleet: closed")
	// ErrUnknownSession reports an operation on a session id the fleet
	// does not currently serve (never added, removed, or parked by
	// Disconnect). Wrapped with the id; match with errors.Is — the ingest
	// server maps it onto a protocol-level NACK.
	ErrUnknownSession = errors.New("fleet: unknown session")
	// ErrBadValue reports an observation carrying a NaN or infinite
	// feature value. The int8 quantizer has no defined output for one,
	// so it is refused at admission. Wrapped with the session id; match
	// with errors.Is.
	ErrBadValue = errors.New("fleet: non-finite feature value")
)

// Config sizes the fleet. The zero value of every field except Sessions
// has a sensible default; see Normalize.
type Config struct {
	// Sessions is the number of device sessions created up front (ids
	// 0..Sessions-1). More can be added later with AddSession.
	Sessions int
	// Shards is the number of lock stripes / batching domains (default 8,
	// clamped to Sessions when larger).
	Shards int
	// Ticks is the deterministic run length in observation rounds.
	Ticks int
	// TickEvery is the virtual time between observation rounds (default 1s).
	TickEvery time.Duration
	// Seed drives every session's sub-seeded RNG and the stream model.
	Seed int64
	// FeatureDim is the classifier input dimensionality (default 24).
	FeatureDim int
	// Noise is the feature jitter of the synthetic observation streams
	// (default 0.15).
	Noise float64
	// SwitchEvery is the mean number of ticks between a session's latent
	// emotion changes (default 25).
	SwitchEvery int
	// LaunchEvery is the mean number of ticks between a session's app
	// launches (default 40).
	LaunchEvery int
	// QueueDepth bounds each shard's live ingress queue (default 1024).
	QueueDepth int
	// MaxBatch caps how many queued observations one live inference batch
	// coalesces (default 256).
	MaxBatch int
	// Hysteresis and MinConfidence configure every session's manager
	// (defaults from core.DefaultManagerConfig). Session managers always
	// run with DisableHistory: per-session transition slices would grow
	// without bound at fleet scale.
	Hysteresis    int
	MinConfidence float64
	// Device configures every session's simulated phone (zero value:
	// android.DefaultDeviceConfig).
	Device android.DeviceConfig
	// VideoEvery, when positive, gives every session a video workload on
	// the deterministic path: each VideoEvery ticks the session decodes the
	// shared probe clip in its manager's current decoder operating mode
	// (Input Selector plus deblocking knob), on the shard's pooled decoder.
	// 0 disables the probe. The probe reads session state but never writes
	// it, so fingerprints are identical with the probe on or off.
	VideoEvery int
	// VideoFrames is the probe clip length in frames (default 6). The clip
	// is generated and encoded once at New, the per-mode Input Selector
	// passes are pre-applied, and every shard decodes the shared streams.
	VideoFrames int
	// Traffic shapes every session's app-launch schedule on the
	// deterministic path (nil: UniformTraffic, the historical behavior —
	// runs under it are bit-identical to runs before traffic models
	// existed).
	Traffic TrafficModel
	// Profiles makes shards heterogeneous: shard i takes profile
	// i%len(Profiles). Empty keeps every shard on Config.Device and the
	// full app catalog.
	Profiles []ShardProfile
}

// ShardProfile customizes one shard's hardware class and app catalog,
// modelling a fleet whose users carry different phones with different app
// sets.
type ShardProfile struct {
	// Device is the hardware class for sessions on this shard; the zero
	// value inherits Config.Device.
	Device android.DeviceConfig
	// Apps restricts the shard's launch catalog to this subset of
	// android.CatalogNames(); empty inherits the full catalog. Normalize
	// sorts it and rejects unknown or duplicate names.
	Apps []string
}

// Normalize fills defaults and validates; returned config is self-contained.
func (c Config) Normalize() (Config, error) {
	if c.Sessions < 0 {
		return c, fmt.Errorf("fleet: %d sessions", c.Sessions)
	}
	if c.Shards <= 0 {
		c.Shards = 8
	}
	if c.Sessions > 0 && c.Shards > c.Sessions {
		c.Shards = c.Sessions
	}
	if c.Ticks < 0 {
		return c, fmt.Errorf("fleet: %d ticks", c.Ticks)
	}
	if c.TickEvery <= 0 {
		c.TickEvery = time.Second
	}
	if c.FeatureDim == 0 {
		c.FeatureDim = 24
	}
	if c.FeatureDim < 2 {
		return c, fmt.Errorf("fleet: feature dim %d, want >= 2", c.FeatureDim)
	}
	if c.Noise == 0 {
		c.Noise = 0.15
	}
	if c.Noise < 0 || c.Noise > 2 {
		return c, fmt.Errorf("fleet: noise %g outside (0, 2]", c.Noise)
	}
	if c.SwitchEvery <= 0 {
		c.SwitchEvery = 25
	}
	if c.LaunchEvery <= 0 {
		c.LaunchEvery = 40
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 1024
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 256
	}
	if c.Hysteresis <= 0 {
		c.Hysteresis = core.DefaultManagerConfig().Hysteresis
	}
	if c.MinConfidence == 0 {
		c.MinConfidence = core.DefaultManagerConfig().MinConfidence
	}
	if c.MinConfidence < 0 || c.MinConfidence > 1 {
		return c, fmt.Errorf("fleet: min confidence %g outside [0,1]", c.MinConfidence)
	}
	if c.Device.RAMBytes == 0 {
		c.Device = android.DefaultDeviceConfig()
	}
	if c.VideoEvery < 0 {
		return c, fmt.Errorf("fleet: video probe every %d ticks", c.VideoEvery)
	}
	if c.VideoFrames <= 0 {
		c.VideoFrames = 6
	}
	if c.Traffic == nil {
		c.Traffic = UniformTraffic{}
	}
	if len(c.Profiles) > 0 {
		catalog := android.CatalogByName()
		profiles := append([]ShardProfile(nil), c.Profiles...)
		for pi := range profiles {
			p := &profiles[pi]
			if p.Device.RAMBytes == 0 {
				p.Device = c.Device
			}
			if len(p.Apps) == 0 {
				continue
			}
			apps := append([]string(nil), p.Apps...)
			sort.Strings(apps)
			for i, name := range apps {
				if _, ok := catalog[name]; !ok {
					return c, fmt.Errorf("fleet: profile %d app %q not in catalog", pi, name)
				}
				if i > 0 && apps[i-1] == name {
					return c, fmt.Errorf("fleet: profile %d duplicate app %q", pi, name)
				}
			}
			p.Apps = apps
		}
		c.Profiles = profiles
	}
	return c, nil
}

// session is one simulated device: its own control loop and phone, plus
// the latent emotional state driving its synthetic observation stream.
// Sessions are closed systems — all their randomness flows through the
// counted sub-seeded RNG and they never read each other's state — which is
// what makes a parked session's missed rounds exactly replayable.
type session struct {
	id  int
	rng *rand.Rand
	src *countingSource // rng's source; draw count is the RNG snapshot state
	mgr *core.Manager
	dev *android.Device

	latent     emotion.Label
	nextSwitch int
	nextLaunch int
	// ticks is the deterministic round this session has advanced to. Kept
	// current only at lifecycle edges (creation, disconnect, catch-up) —
	// live in-order sessions are implicitly at the fleet's tick.
	ticks int
}

// request is one live-path submission travelling through a shard queue:
// a same-shard run from ObserveBatch, which occupies one queue slot but
// carries len(ids) observations with their timestamps and a flat
// len(ids)×dim feature backing. Requests are recycled through the shard's
// free pool, so steady-state admission allocates nothing.
type request struct {
	ids []int
	ats []time.Duration
	xs  []float64
}

// shard is one lock stripe: a slice of the session population plus the
// scratch to classify all of it in one batched int8 evaluation.
type shard struct {
	f *Fleet

	idx      int // shard index (stripe number)
	mu       sync.Mutex
	sessions map[int]*session
	order    []int // sorted ids: deterministic iteration
	// parked holds disconnected sessions: frozen at session.ticks, out of
	// the batching order, caught up on Reconnect.
	parked map[int]*session

	// apps is the shard's launch catalog and devcfg its hardware class
	// (heterogeneous fleets via Config.Profiles; defaults to the full
	// catalog and Config.Device). Read-only after New.
	apps   []string
	devcfg android.DeviceConfig

	queue chan *request
	free  sync.Pool // recycled *request: filled by submitRun, returned by coalesce

	// Inference scratch, owned by whichever goroutine holds the shard
	// (the tick driver or the shard worker — never both).
	feat   []float64
	logits []float64
	qs     nn.QScratch
	batch  []*session
	ats    []time.Duration // live path: per-batch-row timestamps
	reqs   []*request

	// Video probe scratch (deterministic path; owned by the goroutine
	// holding the shard). One pooled decoder per shard decodes every
	// session's probe, so steady state runs with zero plane allocations.
	vdec    *h264.Decoder
	vpool   *h264.FramePool
	vframes []*h264.Frame

	// Deterministic-path aggregation.
	batches        int64
	batchRows      int64
	maxRows        int
	videoDecodes   int64
	videoFrames    int64
	videoConcealed int64

	depth *obs.Gauge   // ingress high-water mark
	drops *obs.Counter // live observations dropped (backpressure)
	late  *obs.Counter // queued observations whose session was removed
}

// Fleet is the sharded session manager.
type Fleet struct {
	cfg    Config
	stream *affect.StreamModel
	model  *nn.QMLP
	// inferBatch classifies m feature rows in one call: model.InferBatch,
	// unless a same-package test swaps in a row-at-a-time twin to pin
	// batched ≡ serial evaluation.
	inferBatch func(s *nn.QScratch, x []float64, m int, out []float64) error
	apps       []string
	policy     android.KillPolicy // read-only, shared by every device
	shards     []*shard

	base int // deterministic ticks already run (RunTicks continuation)

	// Video probe: the calibration clip encoded once at New, with the
	// Input Selector pre-applied per decoder mode, so per-session probes
	// are pure decode work. Empty unless cfg.VideoEvery > 0.
	videoStreams [h264.NumModes][]byte
	videoTotal   int // display-timeline frame count of the probe clip

	started atomic.Bool
	closed  atomic.Bool
	// lifeMu fences intake against Close: ObserveBatch enqueues under
	// RLock, Close takes the write lock after flipping closed so every
	// accepted observation is in a queue before the drain begins. Without
	// it an enqueue could land after the workers exit and silently strand.
	lifeMu sync.RWMutex
	stop   chan struct{}
	wg     sync.WaitGroup

	m metrics
}

// New builds the fleet: the shared stream model and its matched int8
// classifier, the shards, and cfg.Sessions initial sessions. No goroutines
// are started; use Run for the deterministic simulation or
// Start/ObserveBatch/Close for live serving. The fleet builds its own
// metric handles under the scope last passed to WireMetrics, per-shard
// ones as "shardNN.*"; Stats reads its drop counts from them.
func New(cfg Config) (*Fleet, error) {
	cfg, err := cfg.Normalize()
	if err != nil {
		return nil, err
	}
	stream, err := affect.NewStreamModel(cfg.FeatureDim, cfg.Seed)
	if err != nil {
		return nil, err
	}
	model, err := stream.QuantizedClassifier(cfg.Noise)
	if err != nil {
		return nil, err
	}
	table, err := android.AffectTableFromSubjects()
	if err != nil {
		return nil, err
	}
	policy, err := android.NewEmotionalPolicy(table)
	if err != nil {
		return nil, err
	}
	f := &Fleet{
		cfg:        cfg,
		stream:     stream,
		model:      model,
		inferBatch: model.InferBatch,
		apps:       android.CatalogNames(),
		policy:     policy,
		shards:     make([]*shard, cfg.Shards),
		stop:       make(chan struct{}),
	}
	scope := wired.Load()
	f.m = newMetrics(scope)
	for i := range f.shards {
		ss := scope.Scope(fmt.Sprintf("shard%02d", i))
		sh := &shard{
			f:        f,
			idx:      i,
			sessions: map[int]*session{},
			parked:   map[int]*session{},
			apps:     f.apps,
			devcfg:   cfg.Device,
			queue:    make(chan *request, cfg.QueueDepth),
			depth:    ss.NewGauge("queue_depth_high"),
			drops:    ss.NewCounter("drops"),
			late:     ss.NewCounter("late_drops"),
		}
		if len(cfg.Profiles) > 0 {
			p := cfg.Profiles[i%len(cfg.Profiles)]
			sh.devcfg = p.Device
			if len(p.Apps) > 0 {
				sh.apps = p.Apps
			}
		}
		sh.free.New = func() any { return new(request) }
		f.shards[i] = sh
	}
	if cfg.VideoEvery > 0 {
		if err := f.buildVideoProbe(); err != nil {
			return nil, err
		}
	}
	for id := 0; id < cfg.Sessions; id++ {
		if err := f.AddSession(id); err != nil {
			return nil, err
		}
	}
	return f, nil
}

// shardOf stripes a session id onto its shard.
func (f *Fleet) shardOf(id int) *shard { return f.shards[id%len(f.shards)] }

// sessionSeed derives session id's RNG seed from the fleet seed alone —
// never from creation order or worker scheduling — which is what makes
// N-worker runs bit-identical and lets snapshot restore rebuild the source
// without serializing generator internals.
func sessionSeed(fleetSeed int64, id int) int64 {
	const golden = int64(-7046029254386353131) // 0x9E3779B97F4A7C15: splitmix64 increment
	return fleetSeed ^ (golden * int64(id+1))
}

// newSession builds a sub-seeded session. The RNG seed depends only on
// the fleet seed and the session id — never on creation order or worker
// scheduling — which is what makes N-worker runs bit-identical.
func (f *Fleet) newSession(id int) (*session, error) {
	mc := core.DefaultManagerConfig()
	mc.Hysteresis = f.cfg.Hysteresis
	mc.MinConfidence = f.cfg.MinConfidence
	mc.DisableHistory = true
	mgr, err := core.NewManager(mc)
	if err != nil {
		return nil, err
	}
	dev, err := android.NewDevice(f.shardOf(id).devcfg, f.policy)
	if err != nil {
		return nil, err
	}
	src := newCountingSource(sessionSeed(f.cfg.Seed, id))
	rng := rand.New(src)
	s := &session{
		id:     id,
		rng:    rng,
		src:    src,
		mgr:    mgr,
		dev:    dev,
		latent: emotion.Label(rng.Intn(emotion.NumLabels)),
	}
	s.nextSwitch = 1 + rng.Intn(2*f.cfg.SwitchEvery)
	s.nextLaunch = rng.Intn(2 * f.cfg.LaunchEvery)
	return s, nil
}

// AddSession creates session id. Safe for concurrent use with the live
// path; fails on duplicate ids or a closed fleet.
func (f *Fleet) AddSession(id int) error {
	if id < 0 {
		return fmt.Errorf("fleet: session id %d", id)
	}
	if f.closed.Load() {
		return ErrClosed
	}
	s, err := f.newSession(id)
	if err != nil {
		return err
	}
	sh := f.shardOf(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if _, dup := sh.sessions[id]; dup {
		return fmt.Errorf("fleet: duplicate session %d", id)
	}
	if _, dup := sh.parked[id]; dup {
		return fmt.Errorf("fleet: duplicate session %d (disconnected)", id)
	}
	s.ticks = f.base
	sh.insert(s)
	f.m.added.Inc()
	f.m.sessions.Add(1)
	return nil
}

// insert places a session into the live set and sorted order. Caller holds
// sh.mu; id must not already be present.
func (sh *shard) insert(s *session) {
	sh.sessions[s.id] = s
	i := sort.SearchInts(sh.order, s.id)
	sh.order = append(sh.order, 0)
	copy(sh.order[i+1:], sh.order[i:])
	sh.order[i] = s.id
}

// RemoveSession tears down session id, connected or disconnected.
// Observations already queued for it are skipped (and counted) when their
// batch drains.
func (f *Fleet) RemoveSession(id int) error {
	sh := f.shardOf(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if _, ok := sh.sessions[id]; ok {
		delete(sh.sessions, id)
		i := sort.SearchInts(sh.order, id)
		sh.order = append(sh.order[:i], sh.order[i+1:]...)
	} else if _, ok := sh.parked[id]; ok {
		delete(sh.parked, id)
	} else {
		return fmt.Errorf("%w %d", ErrUnknownSession, id)
	}
	f.m.removed.Inc()
	f.m.sessions.Add(-1)
	return nil
}

// FeatureDim returns the normalized classifier input dimensionality —
// what every submitted feature vector must measure.
func (f *Fleet) FeatureDim() int { return f.cfg.FeatureDim }

// Sessions returns the current session count, including disconnected
// sessions awaiting reconnect.
func (f *Fleet) Sessions() int {
	n := 0
	for _, sh := range f.shards {
		sh.mu.Lock()
		n += len(sh.sessions) + len(sh.parked)
		sh.mu.Unlock()
	}
	return n
}

// Start launches one worker goroutine per shard for the live serving path.
// Idempotent; returns ErrClosed after Close.
func (f *Fleet) Start() error {
	if f.closed.Load() {
		return ErrClosed
	}
	if !f.started.CompareAndSwap(false, true) {
		return nil
	}
	for _, sh := range f.shards {
		f.wg.Add(1)
		go sh.serve()
	}
	return nil
}

// Obs is one observation of a batched live submission (ObserveBatch).
type Obs struct {
	ID int
	At time.Duration
	X  []float64
}

// ObserveBatch submits many live observations in one shard-level pass: the
// batch is cut into contiguous same-shard runs, and each run is admitted
// with one session check under the shard lock and one grouped enqueue (one
// queue slot regardless of run length); a single observation is a
// one-item batch. Verdicts come back per item in statuses, which must be
// len(items) long: nil for accepted, ErrBackpressure for a full queue
// (retryable — the protocol's per-item NACK bit), a wrapped
// ErrUnknownSession, ErrBadValue or a dimension error otherwise, so one
// full shard or one bad item never fails the rest of the batch. Feature slices are
// copied; the caller may reuse them immediately. The call itself only
// fails on a statuses length mismatch or on ErrClosed (then every status
// is ErrClosed too). Per-session observation order is preserved: items of
// one session land in their batch order.
func (f *Fleet) ObserveBatch(items []Obs, statuses []error) error {
	if len(statuses) != len(items) {
		return fmt.Errorf("fleet: %d statuses for %d batch items", len(statuses), len(items))
	}
	f.lifeMu.RLock()
	defer f.lifeMu.RUnlock()
	if f.closed.Load() {
		for i := range statuses {
			statuses[i] = ErrClosed
		}
		return ErrClosed
	}
	for lo := 0; lo < len(items); {
		sh := f.shardOf(items[lo].ID)
		hi := lo + 1
		for hi < len(items) && f.shardOf(items[hi].ID) == sh {
			hi++
		}
		f.submitRun(sh, items[lo:hi], statuses[lo:hi])
		lo = hi
	}
	return nil
}

// submitRun admits one same-shard run of a batch. The grouped request
// occupies one queue slot, so admission caps the run's row count by the
// queue's free slot count (a race-approximate full check, settled by the
// non-blocking send), and every item past the cap is NACKed with
// ErrBackpressure instead of failing the run.
func (f *Fleet) submitRun(sh *shard, items []Obs, statuses []error) {
	dim := f.cfg.FeatureDim
	valid := 0
	sh.mu.Lock()
	for i := range items {
		switch {
		case len(items[i].X) != dim:
			statuses[i] = fmt.Errorf("fleet: observation dim %d, want %d", len(items[i].X), dim)
		case sh.sessions[items[i].ID] == nil:
			statuses[i] = fmt.Errorf("%w %d", ErrUnknownSession, items[i].ID)
		case !finite(items[i].X):
			statuses[i] = fmt.Errorf("%w: session %d", ErrBadValue, items[i].ID)
		default:
			statuses[i] = nil
			valid++
		}
	}
	sh.mu.Unlock()
	var r *request
	admit := min(valid, cap(sh.queue)-len(sh.queue))
	if admit > 0 {
		r = sh.free.Get().(*request)
		r.ids, r.ats, r.xs = r.ids[:0], r.ats[:0], r.xs[:0]
	}
	nacked := int64(0)
	for i := range items {
		if statuses[i] != nil {
			continue
		}
		if r == nil || len(r.ids) == admit {
			statuses[i] = ErrBackpressure
			nacked++
			continue
		}
		r.ids = append(r.ids, items[i].ID)
		r.ats = append(r.ats, items[i].At)
		r.xs = append(r.xs, items[i].X...)
	}
	if r != nil {
		select {
		case sh.queue <- r:
			sh.depth.SetMax(int64(len(sh.queue)))
			f.m.ingress.Add(int64(admit))
		default:
			// Lost the race for the last free slot: the whole run backs
			// off retryably.
			sh.free.Put(r)
			for i := range items {
				if statuses[i] == nil {
					statuses[i] = ErrBackpressure
					nacked++
				}
			}
		}
	}
	sh.drops.Add(nacked)
}

// finite reports whether x holds no NaN or ±Inf.
func finite(x []float64) bool {
	for _, v := range x {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

// Launch foregrounds an app on session id's device at virtual time at,
// returning the simulated launch latency.
func (f *Fleet) Launch(id int, at time.Duration, app string) (time.Duration, error) {
	if f.closed.Load() {
		return 0, ErrClosed
	}
	sh := f.shardOf(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	s, ok := sh.sessions[id]
	if !ok {
		return 0, fmt.Errorf("%w %d", ErrUnknownSession, id)
	}
	return s.dev.Launch(at, app)
}

// Close stops intake, drains every shard queue, and joins the workers.
// Graceful and idempotent: observations accepted before Close are still
// classified and applied.
func (f *Fleet) Close() error {
	if !f.closed.CompareAndSwap(false, true) {
		return nil
	}
	// Wait out in-flight submissions: once the write lock is acquired, every
	// accepted observation sits in a shard queue and the drain will see it.
	f.lifeMu.Lock()
	f.lifeMu.Unlock() //nolint:staticcheck // empty critical section is the fence
	close(f.stop)
	f.wg.Wait()
	return nil
}

// serve is the live shard worker: block for one request, then coalesce
// everything else already queued (up to MaxBatch) into a single batched
// int8 evaluation.
func (sh *shard) serve() {
	defer sh.f.wg.Done()
	for {
		select {
		case r := <-sh.queue:
			sh.coalesce(r)
		case <-sh.f.stop:
			for { // drain: accepted observations are never discarded
				select {
				case r := <-sh.queue:
					sh.coalesce(r)
				default:
					return
				}
			}
		}
	}
}

// coalesce gathers queued requests behind first and processes them in
// MaxBatch-row inference rounds. The gather loop counts rows, not
// requests: a grouped request (ObserveBatch) can carry more rows than
// MaxBatch by itself, so the classify loop below cuts the gathered rows
// into MaxBatch-sized rounds — the shard's inference envelope, and the
// fingerprint's Batches/BatchRows/MaxBatchRows accounting, are then
// identical to the same traffic arriving one request at a time.
func (sh *shard) coalesce(first *request) {
	reqs := append(sh.reqs[:0], first)
	rows := len(first.ids)
	for rows < sh.f.cfg.MaxBatch {
		select {
		case r := <-sh.queue:
			reqs = append(reqs, r)
			rows += len(r.ids)
		default:
			goto full
		}
	}
full:
	sh.reqs = reqs[:0] // retain capacity for the next batch
	sh.mu.Lock()
	defer sh.mu.Unlock()
	dim := sh.f.cfg.FeatureDim
	sh.batch = sh.batch[:0]
	sh.ats = sh.ats[:0]
	sh.feat = growFloats(sh.feat, rows*dim)
	m := 0
	for _, r := range reqs {
		for k, id := range r.ids {
			m = sh.gatherRow(m, id, r.ats[k], r.xs[k*dim:(k+1)*dim])
		}
		sh.free.Put(r) // rows copied into sh.feat: the request is spent
	}
	classes := len(sh.f.stream.Protos)
	maxB := sh.f.cfg.MaxBatch
	for lo := 0; lo < m; lo += maxB {
		n := m - lo
		if n > maxB {
			n = maxB
		}
		if err := sh.infer(lo, n); err != nil {
			// Unreachable by construction: the model, its InputScale and
			// layer scales, and the row shape are fixed at New, and
			// submitRun admits only FeatureDim-long rows; InferBatch fails
			// on nothing else. FuzzObserveBatchValues pins it.
			panic(fmt.Sprintf("fleet: live inference: %v", err))
		}
		sh.countBatch(n, n)
		for k := 0; k < n; k++ {
			if err := sh.applyRow(sh.batch[lo+k], sh.ats[lo+k], sh.logits[k*classes:(k+1)*classes]); err != nil {
				// Unreachable by construction: admission refuses every
				// non-finite row (ErrBadValue), and the clamped int8
				// pipeline maps finite rows to finite logits, so confidence
				// lies in [0,1) and Argmax yields a valid label — the only
				// inputs Manager.Observe and Device.SetMood reject.
				// FuzzObserveBatchValues pins it.
				panic(fmt.Sprintf("fleet: apply: %v", err))
			}
		}
	}
}

// gatherRow copies one queued observation into row m of the shard's batch
// matrix, skipping (and counting) observations whose session was removed
// while they waited. Caller holds sh.mu. Returns the next free row.
func (sh *shard) gatherRow(m, id int, at time.Duration, x []float64) int {
	s, ok := sh.sessions[id]
	if !ok {
		// Removed while queued: the request outlived its session.
		sh.late.Inc()
		return m
	}
	dim := sh.f.cfg.FeatureDim
	copy(sh.feat[m*dim:(m+1)*dim], x)
	sh.batch = append(sh.batch, s)
	sh.ats = append(sh.ats, at)
	return m + 1
}

// infer classifies n feature rows of sh.feat starting at row off into
// sh.logits in one coalesced batched evaluation.
func (sh *shard) infer(off, n int) error {
	dim := sh.f.cfg.FeatureDim
	classes := len(sh.f.stream.Protos)
	sh.logits = growFloats(sh.logits, n*classes)
	return sh.f.inferBatch(&sh.qs, sh.feat[off*dim:(off+n)*dim], n, sh.logits[:n*classes])
}

// countBatch records one inference round of rows classified rows against a
// logical population of pop sessions. On the live path pop == rows; on the
// deterministic path pop additionally counts parked sessions, so the
// frozen fingerprint fields (Batches, MaxBatchRows) are invariant under
// churn — a parked session's rows land later via catch-up replay, which
// backfills BatchRows one row at a time.
func (sh *shard) countBatch(rows, pop int) {
	sh.batches++
	sh.batchRows += int64(rows)
	if pop > sh.maxRows {
		sh.maxRows = pop
	}
	sh.f.m.batches.Inc()
	sh.f.m.batchRows.Observe(int64(rows))
}

// applyRow feeds one classified observation into the session's control
// loop: hysteresis, decoder mode, and the device's mood for the EBM.
func (sh *shard) applyRow(s *session, at time.Duration, logits []float64) error {
	label := emotion.Label(nn.Argmax(logits))
	switched, err := s.mgr.Observe(core.Observation{
		At:         at,
		Label:      label,
		Confidence: confidence(logits),
	})
	if err != nil {
		return err
	}
	if switched {
		if err := s.dev.SetMood(s.mgr.Mood()); err != nil {
			return err
		}
	}
	return nil
}

// confidence maps classifier logits to [0,1) via the top-2 margin:
// ambiguous observations (small margin) land below MinConfidence and are
// absorbed by the manager's discard path, mirroring how a deployed
// classifier's softmax confidence gates the control loop.
func confidence(logits []float64) float64 {
	if len(logits) < 2 {
		return 1
	}
	top, second := math.Inf(-1), math.Inf(-1)
	for _, v := range logits {
		if v > top {
			top, second = v, top
		} else if v > second {
			second = v
		}
	}
	m := top - second
	return m / (1 + m)
}

// growFloats is append-free scratch sizing (contents unspecified).
func growFloats(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}
