package main

import (
	"fmt"
	"runtime"
	"time"

	"affectedge/internal/android"
	"affectedge/internal/fleet"
	"affectedge/internal/parallel"
)

// replaySessions bounds the sessions sim_video's layer replay follows.
const replaySessions = 256

// simConfig is sim_video's fleet: shards cycle through the android device
// classes, so the budget phones run out of memory and the emotional kill
// policy fires, and every session decodes the probe clip every
// videoEvery ticks.
func simConfig(seed int64, sessions, videoEvery int) fleet.Config {
	cfg := fleet.Config{Sessions: sessions, Seed: seed, VideoEvery: videoEvery}
	for _, dc := range android.DeviceClasses() {
		cfg.Profiles = append(cfg.Profiles, fleet.ShardProfile{Device: dc})
	}
	return cfg
}

// runSim drives sim_video: fleet.RunTicks(simCall) calls, one observation
// per session and tick, on nproc workers. The checkpoint is the end of the first
// video period, just after the first probe round. There every trial's
// fingerprint must match a fresh fleet run serially with the video probe
// off (the probe never writes session state), every trial must have
// concealed the same number of probe frames, and, at the default size and
// seed, both must equal the values recorded in BENCHMARK.json.
func runSim(o options, sz sizes, tr *tracer) ([]*pass, error) {
	want, err := serialFingerprint(simConfig(o.seed, sz.simSessions, 0), sz.videoEvery)
	if err != nil {
		return nil, err
	}
	ref := reference{fingerprint: o.expectFP, concealed: -1}
	if ref.fingerprint == "" && !o.tiny && o.seed == defaultSeed {
		if ref, err = recorded(o.benchFile); err != nil {
			return nil, err
		}
	}
	prev := parallel.SetWorkers(runtime.NumCPU())
	defer parallel.SetWorkers(prev)
	ps, err := trials(o, sz.simTrials, func(time.Duration) (*pass, error) { return simTrial(o, sz, tr) })
	if err != nil {
		return nil, err
	}
	for _, p := range ps {
		p.check("fingerprint == serial no-video rerun", p.checkpoint == want,
			fmt.Sprintf("run %s rerun %s", short(p.checkpoint), short(want)))
		p.check("concealed frames == first trial's", p.concealed == ps[0].concealed,
			fmt.Sprintf("run %d first %d", p.concealed, ps[0].concealed))
		if ref.fingerprint != "" {
			p.check("fingerprint == recorded", p.checkpoint == ref.fingerprint,
				fmt.Sprintf("run %s recorded %s", short(p.checkpoint), short(ref.fingerprint)))
		}
		if ref.concealed >= 0 {
			p.check("concealed frames == recorded", p.concealed == ref.concealed,
				fmt.Sprintf("run %d recorded %d", p.concealed, ref.concealed))
		}
	}

	// The replay follows fewer sessions for longer than the fleet's first
	// ticks would, so the decoder modes it selects are past start-up.
	rs := min(sz.simSessions, replaySessions)
	tf, err := newTraffic(o.seed, rs, sz.replayObs/rs)
	if err != nil {
		return nil, err
	}
	for k := 0; k < sz.replayObs/rs; k++ {
		for s := 0; s < rs; s++ {
			ps[0].replay = append(ps[0].replay, replayObs{session: s, at: time.Duration(k+1) * time.Second, x: tf.obs(s, k)})
		}
	}
	return ps, nil
}

// simTrial is one trial of sim_video on a freshly built fleet: simPeriods
// whole video periods, so every trial carries the same ticks, probe
// rounds and heap growth. --seconds sets how many trials a run makes.
// Each RunTicks call runs simCall ticks, so each shard works through them
// between barriers and a call's time depends less on how the host
// schedules the workers than a single tick's does.
func simTrial(o options, sz sizes, tr *tracer) (*pass, error) {
	S, ve := sz.simSessions, sz.videoEvery
	p := &pass{sessions: S, tr: tr, rows: S / 8}
	f, setup, added, err := timedBuild(func() (*fleet.Fleet, error) { return fleet.New(simConfig(o.seed, S, ve)) })
	if err != nil {
		return nil, err
	}
	p.setup, p.heapPerSession = setup, float64(added)/float64(S)

	var (
		st    *fleet.Stats
		ticks int
	)
	log := tr.log()
	runtime.GC()
	m := startMeter()
	t0 := time.Now()
	root := tr.newID()
	end := t0
	for ticks < sz.simPeriods*ve {
		s := time.Now()
		if ticks > 0 {
			p.late = append(p.late, us(s.Sub(end)))
		}
		st, err = f.RunTicks(sz.simCall)
		if err != nil {
			return nil, err
		}
		end = time.Now()
		log.add("fleet.run_ticks", root, uint64(ticks), s, end)
		p.ack = append(p.ack, us(end.Sub(s)))
		if ticks += sz.simCall; ticks == ve {
			p.checkpoint, p.concealed = st.Fingerprint(), st.VideoConcealed
		}
	}
	p.res = m.stop()
	p.wall = end.Sub(t0)
	log.addID(root, "workload."+o.workload, 0, 0, t0, end)
	// Every RunTicks call applies its observations before it returns, so
	// the applied count is read once per call and lag equals the call time.
	p.lag = p.ack
	p.backlog = make([]float64, len(p.ack))
	p.stats = st
	p.issued = int64(ticks * S)
	p.acked = p.issued
	p.applied = st.Observations
	p.check("applied == ticks x sessions", p.applied == p.issued,
		fmt.Sprintf("applied %d issued %d", p.applied, p.issued))
	probes := int64(S * (ticks / ve))
	p.check("probe decodes == sessions x periods, frames == decodes x clip",
		st.VideoDecodes == probes && st.VideoFrames == probes*probeFrames,
		fmt.Sprintf("decodes %d want %d, frames %d want %d", st.VideoDecodes, probes, st.VideoFrames, probes*probeFrames))
	return p, nil
}

// serialFingerprint runs cfg for ticks on one worker.
func serialFingerprint(cfg fleet.Config, ticks int) (string, error) {
	prev := parallel.SetWorkers(1)
	defer parallel.SetWorkers(prev)
	cfg.Ticks = ticks
	st, err := fleet.Run(cfg)
	if err != nil {
		return "", err
	}
	return st.Fingerprint(), nil
}

func short(fp string) string {
	if len(fp) > 16 {
		return fp[:16]
	}
	return fp
}
