package main

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"affectedge/internal/fleet"
	"affectedge/internal/server"
)

// rig is one set-up system under test: a started fleet and an ingest
// server with one HELLO'd, batching client per session.
type rig struct {
	f    *fleet.Fleet
	srv  *server.Server
	clis []*server.Client
}

func (r *rig) close() {
	for _, c := range r.clis {
		c.Close()
	}
	r.srv.Close()
	r.f.Close()
}

// buildRig is the set-up that setup_s times: fleet New with its sessions,
// Start, server Listen, and every client dialled and HELLO'd.
func buildRig(cfg fleet.Config) (*rig, error) {
	f, err := fleet.New(cfg)
	if err != nil {
		return nil, err
	}
	if err := f.Start(); err != nil {
		return nil, err
	}
	r := &rig{f: f, srv: server.New(f, server.Config{})}
	addr, err := r.srv.Listen("127.0.0.1:0")
	if err != nil {
		r.close()
		return nil, err
	}
	for id := 0; id < cfg.Sessions; id++ {
		c, err := server.Dial(addr.String(), id, f.FeatureDim(), 30*time.Second)
		if err != nil {
			r.close()
			return nil, fmt.Errorf("dial session %d: %w", id, err)
		}
		c.StartBatching(server.BatchConfig{BatchSize: uploadBatch, Window: uploadWindow})
		r.clis = append(r.clis, c)
	}
	return r, nil
}

// tcp_upload shape: a call uploads uploadCall buffered observations in
// OBSERVE_BATCH frames of uploadBatch, uploadWindow frames in flight.
const (
	uploadCall   = 256
	uploadBatch  = 64
	uploadWindow = 4
	tcpSessions  = 2 // = nproc on the reference machine; one connection each
)

// pollRec is one applied-count poll.
type pollRec struct {
	t       float64 // µs since the first send, when the count was read
	applied int64
	issued  int64
}

// poller reads the fleet's applied count (Stats().Observations) every
// interval until the generators are done and every issued observation
// is applied.
type poller struct {
	f      *fleet.Fleet
	t0     time.Time
	every  time.Duration
	issued *atomic.Int64
	done   *atomic.Bool
	log    *spanLog
	root   uint64

	recs      []pollRec
	dur       []float64
	appliedAt time.Time
	stalled   bool
}

func (p *poller) run() {
	var doneAt time.Time
	for req := uint64(0); ; req++ {
		fin := p.done.Load()
		if fin {
			if doneAt.IsZero() {
				doneAt = time.Now()
			}
			time.Sleep(100 * time.Microsecond)
		} else {
			time.Sleep(p.every)
		}
		iss := p.issued.Load()
		s := time.Now()
		a := p.f.Stats().Observations
		e := time.Now()
		p.log.add("fleet.stats_poll", p.root, req, s, e)
		p.dur = append(p.dur, us(e.Sub(s)))
		p.recs = append(p.recs, pollRec{t: us(e.Sub(p.t0)), applied: a, issued: iss})
		if fin && a >= iss {
			p.appliedAt = e
			return
		}
		if fin && time.Since(doneAt) > 30*time.Second {
			p.appliedAt, p.stalled = e, true
			return
		}
	}
}

// finish turns the poll records into lag and backlog samples; dueOf gives
// the due (or issue) time in µs of the a-th observation in schedule order.
func (p *poller) finish(ps *pass, dueOf func(a int64) float64) {
	ps.pollDur = p.dur
	for _, r := range p.recs {
		ps.backlog = append(ps.backlog, float64(r.issued-r.applied))
		if r.applied > 0 {
			ps.lag = append(ps.lag, r.t-dueOf(r.applied))
		}
	}
	if p.stalled {
		ps.check("drained", false, "applied count stopped short of issued for 30s")
	}
}

// clientOut is one TCP client goroutine's record.
type clientOut struct {
	ack    []float64 // µs per call
	starts []float64 // µs since first send, per call
	late   []float64 // µs from a reply to the next call
	sent   int       // observations accepted, in session order
	err    error
}

// runTCP drives tcp_upload: a closed loop of tcpSessions connections, one
// session each, every call an upload of uploadCall observations.
func runTCP(o options, sz sizes, tr *tracer) ([]*pass, error) {
	tf, err := newTraffic(o.seed, tcpSessions, 1<<16)
	if err != nil {
		return nil, err
	}
	return trials(o, sz.tcpTrials, func(window time.Duration) (*pass, error) {
		return tcpTrial(o, sz, tf, window, tr)
	})
}

// tcpTrial is one trial of tcp_upload on a freshly set-up rig.
func tcpTrial(o options, sz sizes, tf *traffic, window time.Duration, tr *tracer) (*pass, error) {
	cfg := fleet.Config{Sessions: tcpSessions, Seed: o.seed}
	p := &pass{sessions: tcpSessions, tr: tr, rows: 1}
	r, setup, added, err := timedBuild(func() (*rig, error) { return buildRig(cfg) })
	if err != nil {
		return nil, err
	}
	p.setup, p.heapPerSession = setup, float64(added)/tcpSessions

	outs := make([]clientOut, tcpSessions)
	for i := range outs {
		n := int(window.Seconds() * 200e3 / uploadCall)
		outs[i].ack = make([]float64, 0, n)
		outs[i].starts = make([]float64, 0, n)
		outs[i].late = make([]float64, 0, n)
	}
	var (
		issued atomic.Int64
		done   atomic.Bool
		wg     sync.WaitGroup
	)
	o.reg.Reset() // the per-shard queue gauges then cover this trial alone
	runtime.GC()
	m := startMeter()
	t0 := time.Now()
	deadline := t0.Add(window)
	root := tr.newID()
	pl := &poller{f: r.f, t0: t0, every: sz.pollEvery, issued: &issued, done: &done, log: tr.log(), root: root}
	var pwg sync.WaitGroup
	pwg.Add(1)
	go func() { defer pwg.Done(); pl.run() }()
	for i := range outs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			out, cli, log := &outs[i], r.clis[i], tr.log()
			var e time.Time
			for req := uint64(0); time.Now().Before(deadline); req++ {
				s := time.Now()
				if req > 0 {
					out.late = append(out.late, us(s.Sub(e)))
				}
				issued.Add(uploadCall)
				err := uploadOnce(cli, tf, i, out.sent)
				e = time.Now()
				if err != nil {
					out.err = err
					return
				}
				out.sent += uploadCall
				out.ack = append(out.ack, us(e.Sub(s)))
				out.starts = append(out.starts, us(s.Sub(t0)))
				log.add("client.upload", root, uint64(i)<<32|req, s, e)
			}
		}(i)
	}
	wg.Wait()
	done.Store(true)
	pwg.Wait()
	p.res = m.stop()
	p.wall = pl.appliedAt.Sub(t0)
	tr.log().addID(root, "workload."+o.workload, 0, 0, t0, pl.appliedAt)
	p.queueHigh = queueDepthHigh(o.reg)

	var starts []float64
	for i, out := range outs {
		p.ack = append(p.ack, out.ack...)
		p.late = append(p.late, out.late...)
		starts = append(starts, out.starts...)
		if out.err != nil {
			p.hardErrs++
			p.check("client", false, fmt.Sprintf("session %d: %v", i, out.err))
		}
		acked, _, _ := r.clis[i].BatchStats()
		p.acked += acked
	}
	sort.Float64s(starts)
	pl.finish(p, func(a int64) float64 { return starts[min(int((a-1)/uploadCall), len(starts)-1)] })

	r.close()
	c := r.srv.Counters()
	p.counters = &c
	p.stats = r.f.Stats()
	p.issued = issued.Load()
	p.applied = p.stats.Observations
	p.check("acked == accepted == applied == issued",
		p.acked == c.Accepted && c.Accepted == p.applied && p.applied == p.issued,
		fmt.Sprintf("acked %d accepted %d applied %d issued %d", p.acked, c.Accepted, p.applied, p.issued))

	// The same traffic, straight into a fresh in-process fleet: per
	// session, in send order, in ObserveBatch calls shaped like the
	// server's, one OBSERVE_BATCH frame each. In the traced run each call
	// is a fleet.observe_batch span, the source of fleet.submit_us_p50.
	log, replayID, rs := tr.log(), tr.newID(), time.Now()
	direct, err := feedDirect(cfg, func(submit func([]fleet.Obs) error) error {
		items := make([]fleet.Obs, 0, uploadBatch)
		for k := 0; ; k += uploadBatch {
			more := false
			for s := range outs {
				items = items[:0]
				for j := k; j < min(k+uploadBatch, outs[s].sent); j++ {
					items = append(items, fleet.Obs{ID: s, At: tcpAt(j), X: tf.obs(s, j)})
				}
				if len(items) == 0 {
					continue
				}
				more = true
				if err := submit(items); err != nil {
					return err
				}
			}
			if !more {
				return nil
			}
		}
	}, log, replayID)
	log.addID(replayID, "check.direct_replay", root, 0, rs, time.Now())
	if err != nil {
		return nil, fmt.Errorf("direct replay: %w", err)
	}
	compareDirect(p, direct)

	for k := 0; len(p.replay) < sz.replayObs; k++ {
		added := false
		for s := range outs {
			if k < outs[s].sent && len(p.replay) < sz.replayObs {
				p.replay = append(p.replay, replayObs{session: s, at: tcpAt(k), x: tf.obs(s, k)})
				added = true
			}
		}
		if !added {
			break
		}
	}
	p.rows = max(1, int(ratio(float64(p.stats.BatchRows), float64(p.stats.Batches))+0.5))
	return p, nil
}

// tcpAt is the virtual timestamp of a TCP session's k-th observation.
func tcpAt(k int) time.Duration { return time.Duration(k+1) * time.Millisecond }

// uploadOnce is one tcp_upload call: uploadCall buffered observations
// queued and flushed; it returns once the server accepted all of them.
func uploadOnce(cli *server.Client, tf *traffic, s, k int) error {
	for j := k; j < k+uploadCall; j++ {
		if err := cli.ObserveQueued(tcpAt(j), tf.obs(s, j)); err != nil {
			return err
		}
	}
	return cli.Flush()
}
