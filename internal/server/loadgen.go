package server

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"affectedge/internal/fleet"
	"affectedge/internal/obs"
)

// LoadConfig drives RunLoad/DirectLoad: N concurrent sessions, each
// sending Obs observations of deterministic seeded traffic. The same
// config fed to both produces byte-identical per-session observation
// sequences, which is what makes the TCP-vs-in-process fingerprint
// comparison meaningful.
type LoadConfig struct {
	Addr     string // TCP address (RunLoad only)
	Sessions int    // session ids 0..Sessions-1, already added to the fleet
	Obs      int    // observations per session
	Dim      int    // feature dimensionality (fleet.FeatureDim)
	// Batch is the observations per OBSERVE_BATCH frame of every RunLoad
	// session, with Window frames in flight and per-item NACK retry.
	// Batch 0 means one observation per frame and one frame in flight
	// (BatchConfig{BatchSize: 1, Window: 1}). DirectLoad ignores both —
	// the in-process twin is the semantic baseline either way.
	Batch   int
	Window  int // in-flight OBSERVE_BATCH frames (default 4; 1 when Batch is 0)
	Seed    int64
	Timeout time.Duration // per round trip (default 30s)
	// DialBurst bounds concurrent dial attempts while ramping (default
	// 512) so a 10k-session ramp doesn't overflow the accept backlog;
	// established connections all stay open concurrently.
	DialBurst int
	// Latency, when non-nil, records each observation round trip in
	// microseconds (nil-safe: an unwired histogram is a no-op).
	Latency *obs.Histogram
}

// LoadResult is the generator's accounting. The invariant callers check:
// Acked == Sessions*Obs (every observation lands; NACKs are retried) and
// Nacked counts only backpressure round trips, each followed by a retry.
type LoadResult struct {
	Sent    int64         `json:"sent"`    // observation round trips, retries included
	Acked   int64         `json:"acked"`   // observations accepted
	Nacked  int64         `json:"nacked"`  // backpressure NACKs (all retried)
	Elapsed time.Duration `json:"elapsed"` // wall time of the observe phase
}

// trafficRNG derives session id's private RNG from the run seed —
// SplitMix-style odd-constant mixing so adjacent ids get uncorrelated
// streams.
func trafficRNG(seed int64, id int) *rand.Rand {
	return rand.New(rand.NewSource(int64(uint64(seed) ^ (uint64(id)+1)*0x9e3779b97f4a7c15)))
}

// nextObs synthesizes observation i for one session: a standard-normal
// feature vector (refilled in place) stamped with a virtual timestamp.
func nextObs(rng *rand.Rand, i int, vals []float64) time.Duration {
	for j := range vals {
		vals[j] = rng.NormFloat64()
	}
	return time.Duration(i+1) * time.Millisecond
}

func (cfg LoadConfig) normalize() (LoadConfig, error) {
	if cfg.Sessions <= 0 || cfg.Obs <= 0 || cfg.Dim <= 0 {
		return cfg, fmt.Errorf("server: load config needs sessions, obs, dim > 0 (got %d, %d, %d)",
			cfg.Sessions, cfg.Obs, cfg.Dim)
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 30 * time.Second
	}
	if cfg.DialBurst <= 0 {
		cfg.DialBurst = 512
	}
	if cfg.Batch <= 0 {
		cfg.Batch = 1
		if cfg.Window <= 0 {
			cfg.Window = 1
		}
	}
	return cfg, nil
}

// RunLoad drives cfg.Sessions concurrent pipelined clients against a
// running ingest server. All sessions connect first (dial concurrency
// bounded by DialBurst, connections held open), then send in lockstep
// release: every observation is retried through backpressure NACKs until
// ACKed, so a clean run loses nothing. The first hard error (anything
// but backpressure) aborts that session and surfaces in the returned
// error; the other sessions run to completion.
func RunLoad(cfg LoadConfig) (*LoadResult, error) {
	cfg, err := cfg.normalize()
	if err != nil {
		return nil, err
	}
	res := &LoadResult{}
	var (
		wg       sync.WaitGroup
		dialSem  = make(chan struct{}, cfg.DialBurst)
		ready    sync.WaitGroup
		start    = make(chan struct{})
		firstErr atomic.Pointer[error]
	)
	fail := func(err error) {
		firstErr.CompareAndSwap(nil, &err)
	}
	ready.Add(cfg.Sessions)
	wg.Add(cfg.Sessions)
	for id := 0; id < cfg.Sessions; id++ {
		go func(id int) {
			defer wg.Done()
			dialSem <- struct{}{}
			cli, err := Dial(cfg.Addr, id, cfg.Dim, cfg.Timeout)
			<-dialSem
			ready.Done()
			if err != nil {
				fail(fmt.Errorf("session %d: %w", id, err))
				return
			}
			defer cli.Close()
			<-start
			cli.StartBatching(BatchConfig{
				BatchSize: cfg.Batch, Window: cfg.Window, Latency: cfg.Latency,
			})
			rng := trafficRNG(cfg.Seed, id)
			vals := make([]float64, cfg.Dim)
			for i := 0; i < cfg.Obs; i++ {
				at := nextObs(rng, i, vals)
				if err := cli.ObserveQueued(at, vals); err != nil {
					fail(fmt.Errorf("session %d obs %d: %w", id, i, err))
					return
				}
			}
			if err := cli.Flush(); err != nil {
				fail(fmt.Errorf("session %d flush: %w", id, err))
				return
			}
			acked, nacked, _ := cli.BatchStats()
			atomic.AddInt64(&res.Sent, acked+nacked)
			atomic.AddInt64(&res.Acked, acked)
			atomic.AddInt64(&res.Nacked, nacked)
		}(id)
	}
	ready.Wait() // every session holds its connection (or failed to dial)
	t0 := time.Now()
	close(start)
	wg.Wait()
	res.Elapsed = time.Since(t0)
	if ep := firstErr.Load(); ep != nil {
		return res, *ep
	}
	return res, nil
}

// DirectLoad is RunLoad's in-process twin: identical traffic (same seed,
// same per-session RNG streams) fed straight into the fleet as one-item
// fleet.ObserveBatch calls with the same retry-through-backpressure
// discipline. Running both against equally-configured fleets and
// comparing Stats.Fingerprint proves the network path is semantics-free.
func DirectLoad(f *fleet.Fleet, cfg LoadConfig) (*LoadResult, error) {
	cfg, err := cfg.normalize()
	if err != nil {
		return nil, err
	}
	res := &LoadResult{}
	var (
		wg       sync.WaitGroup
		firstErr atomic.Pointer[error]
	)
	wg.Add(cfg.Sessions)
	t0 := time.Now()
	for id := 0; id < cfg.Sessions; id++ {
		go func(id int) {
			defer wg.Done()
			rng := trafficRNG(cfg.Seed, id)
			item := []fleet.Obs{{ID: id, X: make([]float64, cfg.Dim)}}
			status := []error{nil}
			for i := 0; i < cfg.Obs; i++ {
				item[0].At = nextObs(rng, i, item[0].X)
				for {
					err := f.ObserveBatch(item, status)
					if err == nil {
						err = status[0]
					}
					atomic.AddInt64(&res.Sent, 1)
					if err == nil {
						atomic.AddInt64(&res.Acked, 1)
						break
					}
					if errors.Is(err, fleet.ErrBackpressure) {
						atomic.AddInt64(&res.Nacked, 1)
						time.Sleep(50 * time.Microsecond)
						continue
					}
					e := fmt.Errorf("session %d obs %d: %w", id, i, err)
					firstErr.CompareAndSwap(nil, &e)
					return
				}
			}
		}(id)
	}
	wg.Wait()
	res.Elapsed = time.Since(t0)
	if ep := firstErr.Load(); ep != nil {
		return res, *ep
	}
	return res, nil
}

// VerifyConfig returns the fleet configuration both sides of a
// fingerprint comparison must share: MaxBatch 1 pins the live path's
// batching accounting (every coalesce round is exactly one row), which
// is the one timing-dependent degree of freedom in Stats.Fingerprint;
// everything else in the fingerprint is already order-independent
// because sessions are closed systems and the int8 kernels are bit-exact
// regardless of batch composition.
func VerifyConfig(sessions, shards, queueDepth int, seed int64) fleet.Config {
	return fleet.Config{
		Sessions:   sessions,
		Shards:     shards,
		QueueDepth: queueDepth,
		MaxBatch:   1,
		Seed:       seed,
	}
}
