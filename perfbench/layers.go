package main

import (
	"math/rand"
	"strings"
	"time"

	"affectedge/internal/affect"
	"affectedge/internal/android"
	"affectedge/internal/core"
	"affectedge/internal/emotion"
	"affectedge/internal/fleet"
	"affectedge/internal/h264"
	"affectedge/internal/nn"
	"affectedge/internal/obs"
	"affectedge/internal/wire"
)

// layerCosts is what the layer replay measured: each layer's public
// function timed over the workload's own inputs. A zero means the layer
// is not on this workload's path.
type layerCosts struct {
	encodeNs, decodeNs, bytesPerObs float64 // wire, per observation
	inferNs                         float64 // nn, per row
	observeNs                       float64 // core, per Observe
	setMoodNs, launchNs             float64 // android, per call
	decodeUs                        float64 // h264, per probe decode
	sampleNs                        float64 // affect, per Sample
}

// minReplay is how long each layer's replay repeats its inputs.
const minReplay = 100 * time.Millisecond

// timeReps runs fn (one pass over n inputs) until minReplay has elapsed
// and returns the time per input.
func timeReps(n int, fn func() error) (float64, error) {
	var (
		total time.Duration
		done  int
	)
	for total < minReplay || done == 0 {
		s := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		total += time.Since(s)
		done += n
	}
	return float64(total) / float64(done), nil
}

// replayLayers times each layer on the workload's inputs, recording one
// span per layer under a replay root.
func replayLayers(o options, p *pass) (layerCosts, error) {
	var lc layerCosts
	log := p.tr.log()
	root := p.tr.newID()
	rs := time.Now()
	timed := func(name string, fn func() error) error {
		s := time.Now()
		err := fn()
		log.add("replay."+name, root, 0, s, time.Now())
		return err
	}
	var err error
	if o.workload == "tcp_upload" {
		if err = timed("wire", func() error { return replayWire(&lc, p.replay) }); err != nil {
			return lc, err
		}
	}
	model, err := affect.NewStreamModel(featureDim, o.seed)
	if err != nil {
		return lc, err
	}
	var logits []float64
	if err = timed("nn", func() error {
		logits, lc.inferNs, err = replayInfer(model, p.replay, p.rows)
		return err
	}); err != nil {
		return lc, err
	}
	var (
		switches []moodSwitch
		modes    [h264.NumModes]int
	)
	if err = timed("core", func() error {
		switches, modes, lc.observeNs, err = replayCore(p.replay, logits, len(model.Protos))
		return err
	}); err != nil {
		return lc, err
	}
	sim := o.workload == "sim_video"
	if err = timed("android", func() error {
		lc.setMoodNs, lc.launchNs, err = replayAndroid(o.seed, switches, sim, p.sessions)
		return err
	}); err != nil {
		return lc, err
	}
	if sim {
		if err = timed("h264", func() error {
			lc.decodeUs, err = replayProbe(o.seed, modes)
			return err
		}); err != nil {
			return lc, err
		}
		if err = timed("affect", func() error {
			lc.sampleNs, err = replaySample(model, logits, len(model.Protos), o.seed)
			return err
		}); err != nil {
			return lc, err
		}
	}
	log.addID(root, "replay", 0, 0, rs, time.Now())
	return lc, nil
}

// replayWire encodes the workload's OBSERVE_BATCH request and ACK_BATCH
// reply frames with wire.Append and splits them back with
// Splitter.Feed/Next, one Feed per frame as one socket read would deliver
// it.
func replayWire(lc *layerCosts, in []replayObs) error {
	var frames []wire.Frame
	for lo := 0; lo < len(in); lo += uploadBatch {
		hi := min(lo+uploadBatch, len(in))
		batch := make([]wire.BatchObs, 0, hi-lo)
		for i := lo; i < hi; i++ {
			batch = append(batch, wire.BatchObs{Seq: uint64(i + 1), At: int64(in[i].at), Vals: in[i].x})
		}
		frames = append(frames,
			wire.Frame{Type: wire.ObserveBatch, Batch: batch},
			wire.Frame{Type: wire.AckBatch, Seq: uint64(lo + 1), Count: hi - lo, Bitmap: make([]byte, wire.BitmapLen(hi-lo))})
	}
	encoded := make([][]byte, len(frames))
	total := 0
	for i := range frames {
		b, err := wire.Append(nil, &frames[i])
		if err != nil {
			return err
		}
		encoded[i] = b
		total += len(b)
	}
	lc.bytesPerObs = float64(total) / float64(len(in))
	var buf []byte
	var err error
	if lc.encodeNs, err = timeReps(len(in), func() error {
		for i := range frames {
			if buf, err = wire.Append(buf[:0], &frames[i]); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}
	var fr wire.Frame
	lc.decodeNs, err = timeReps(len(in), func() error {
		var sp wire.Splitter
		for _, b := range encoded {
			if err := sp.Feed(b); err != nil {
				return err
			}
			for {
				ok, err := sp.Next(&fr)
				if err != nil {
					return err
				}
				if !ok {
					break
				}
			}
		}
		return nil
	})
	return err
}

// replayInfer classifies the inputs with nn.QMLP.InferBatch at the
// realised batch size and returns the logits and the time per row.
func replayInfer(model *affect.StreamModel, in []replayObs, rows int) ([]float64, float64, error) {
	q, err := model.QuantizedClassifier(noise)
	if err != nil {
		return nil, 0, err
	}
	rows = max(1, min(rows, 256))
	dim, classes := model.Dim, len(model.Protos)
	x := make([]float64, 0, len(in)*dim)
	for _, r := range in {
		x = append(x, r.x...)
	}
	logits := make([]float64, len(in)*classes)
	var qs nn.QScratch
	ns, err := timeReps(len(in), func() error {
		for lo := 0; lo < len(in); lo += rows {
			n := min(rows, len(in)-lo)
			if err := q.InferBatch(&qs, x[lo*dim:(lo+n)*dim], n, logits[lo*classes:(lo+n)*classes]); err != nil {
				return err
			}
		}
		return nil
	})
	return logits, ns, err
}

// moodSwitch is one SetMood the fleet would issue after a switch.
type moodSwitch struct {
	session int
	mood    emotion.Mood
}

// replayCore feeds the classified inputs through per-session
// core.Manager.Observe, the way the fleet applies a row. It returns the
// SetMood calls that follows, how often each decoder mode was selected,
// and the time per Observe.
func replayCore(in []replayObs, logits []float64, classes int) ([]moodSwitch, [h264.NumModes]int, float64, error) {
	var (
		switches []moodSwitch
		modes    [h264.NumModes]int
	)
	obsv := make([]core.Observation, len(in))
	for i, r := range in {
		l := logits[i*classes : (i+1)*classes]
		obsv[i] = core.Observation{At: r.at, Label: emotion.Label(nn.Argmax(l)), Confidence: confidence(l)}
	}
	managers := func() (map[int]*core.Manager, error) {
		mc := core.DefaultManagerConfig()
		mc.DisableHistory = true
		ms := map[int]*core.Manager{}
		for _, r := range in {
			if ms[r.session] == nil {
				m, err := core.NewManager(mc)
				if err != nil {
					return nil, err
				}
				ms[r.session] = m
			}
		}
		return ms, nil
	}
	ms, err := managers()
	if err != nil {
		return nil, modes, 0, err
	}
	for i, r := range in {
		m := ms[r.session]
		switched, err := m.Observe(obsv[i])
		if err != nil {
			return nil, modes, 0, err
		}
		if switched {
			switches = append(switches, moodSwitch{session: r.session, mood: m.Mood()})
		}
		if 2*i >= len(in) { // past start-up, where every manager sits in its initial mode
			modes[m.DecoderMode()]++
		}
	}
	var fresh map[int]*core.Manager
	total := time.Duration(0)
	done := 0
	for total < minReplay {
		if fresh, err = managers(); err != nil {
			return nil, modes, 0, err
		}
		s := time.Now()
		for i, r := range in {
			if _, err := fresh[r.session].Observe(obsv[i]); err != nil {
				return nil, modes, 0, err
			}
		}
		total += time.Since(s)
		done += len(in)
	}
	return switches, modes, float64(total) / float64(done), nil
}

// confidence is the fleet's top-2 margin confidence, m/(1+m).
func confidence(logits []float64) float64 {
	top, second := logits[0], logits[1]
	if second > top {
		top, second = second, top
	}
	for _, v := range logits[2:] {
		if v > top {
			top, second = v, top
		} else if v > second {
			second = v
		}
	}
	m := top - second
	return m / (1 + m)
}

// replayAndroid times android.Device.SetMood over the replayed switches
// and, for sim_video, Device.Launch over a seeded launch schedule with
// the fleet's default traffic model and device classes.
func replayAndroid(seed int64, switches []moodSwitch, sim bool, sessions int) (setMoodNs, launchNs float64, err error) {
	table, err := android.AffectTableFromSubjects()
	if err != nil {
		return 0, 0, err
	}
	policy, err := android.NewEmotionalPolicy(table)
	if err != nil {
		return 0, 0, err
	}
	devCfg := func(s int) android.DeviceConfig {
		if !sim {
			return android.DefaultDeviceConfig()
		}
		classes := android.DeviceClasses()
		return classes[(s%8)%len(classes)] // shard s%8 takes profile shard%len
	}
	devices := func(n int) ([]*android.Device, error) {
		ds := make([]*android.Device, n)
		for s := range ds {
			d, err := android.NewDevice(devCfg(s), policy)
			if err != nil {
				return nil, err
			}
			ds[s] = d
		}
		return ds, nil
	}
	if len(switches) > 0 {
		ds, err := devices(sessions)
		if err != nil {
			return 0, 0, err
		}
		if setMoodNs, err = timeReps(len(switches), func() error {
			for _, sw := range switches {
				if err := ds[sw.session].SetMood(sw.mood); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			return 0, 0, err
		}
	}
	if !sim {
		return setMoodNs, 0, nil
	}
	type launch struct {
		session int
		at      time.Duration
		app     string
	}
	const launchEvery, launchDevices, launchCount = 40, 256, 8192 // fleet.Config default LaunchEvery
	var (
		rng      = rand.New(rand.NewSource(seed))
		traffic  = fleet.UniformTraffic{}
		apps     = android.CatalogNames()
		next     = make([]int, launchDevices)
		launches []launch
	)
	for s := range next {
		next[s] = rng.Intn(2 * launchEvery)
	}
	for t := 0; len(launches) < launchCount; t++ {
		for s := range next {
			if t >= next[s] {
				launches = append(launches, launch{s, time.Duration(t+1) * time.Second, traffic.PickApp(rng, apps, t)})
				next[s] = t + traffic.NextGap(rng, launchEvery, t)
			}
		}
	}
	var total time.Duration
	done := 0
	for total < minReplay {
		ds, err := devices(launchDevices)
		if err != nil {
			return 0, 0, err
		}
		s := time.Now()
		for _, l := range launches {
			if _, err := ds[l.session].Launch(l.at, l.app); err != nil {
				return 0, 0, err
			}
		}
		total += time.Since(s)
		done += len(launches)
	}
	return setMoodNs, float64(total) / float64(done), nil
}

// probeFrames is fleet.Config's default VideoFrames.
const probeFrames = 6

// replayProbe builds the probe clip with the same calls as the fleet's
// video probe set-up and times one pooled probe decode per decoder mode,
// weighting the modes by how often the core replay selected them.
func replayProbe(seed int64, modes [h264.NumModes]int) (float64, error) {
	vc := h264.CalibrationVideoConfig(probeFrames)
	vc.Seed = seed
	src, err := h264.GenerateVideo(vc)
	if err != nil {
		return 0, err
	}
	enc, err := h264.NewEncoder(h264.CalibrationEncoderConfig())
	if err != nil {
		return 0, err
	}
	stream, units, err := enc.EncodeSequence(src)
	if err != nil {
		return 0, err
	}
	pool := h264.NewFramePool()
	dec := h264.NewDecoder()
	dec.SetPool(pool)
	var frames []*h264.Frame
	weighted, weights := 0.0, 0
	for _, mode := range h264.Modes() {
		data := stream
		if sel := mode.Selector(); sel.Enabled() {
			kept, _ := h264.ApplySelector(units, sel)
			if data, err = h264.MarshalStream(kept); err != nil {
				return 0, err
			}
		}
		ns, err := timeReps(1, func() error {
			dec.SetDeblock(mode.DeblockEnabled())
			dec.Reset()
			out, err := dec.DecodeStreamInto(data, frames[:0])
			if err != nil {
				return err
			}
			out = append(out, dec.ConcealTo(len(src))...)
			pool.PutAll(out)
			frames = out[:0]
			return nil
		})
		if err != nil {
			return 0, err
		}
		w := modes[mode]
		if w == 0 && weights == 0 && mode == h264.Modes()[len(h264.Modes())-1] {
			w = 1 // no mode observed at all: report the last mode alone
		}
		weighted += ns * float64(w)
		weights += w
	}
	return ratio(weighted, float64(weights)) / 1e3, nil
}

// replaySample times affect.StreamModel.Sample over the replayed
// observations' classified labels.
func replaySample(model *affect.StreamModel, logits []float64, classes int, seed int64) (float64, error) {
	n := len(logits) / classes
	labels := make([]emotion.Label, n)
	for i := range labels {
		labels[i] = emotion.Label(nn.Argmax(logits[i*classes : (i+1)*classes]))
	}
	dst := make([]float64, model.Dim)
	rng := rand.New(rand.NewSource(seed))
	return timeReps(n, func() error {
		for _, l := range labels {
			if err := model.Sample(dst, l, noise, rng); err != nil {
				return err
			}
		}
		return nil
	})
}

// queueDepthHigh is the highest per-shard queue high-water mark wired
// into reg, or 0 when nothing is wired.
func queueDepthHigh(reg *obs.Registry) float64 {
	if reg == nil {
		return 0
	}
	high := int64(0)
	for _, g := range reg.Snapshot().Gauges {
		if strings.HasPrefix(g.Name, "fleet.shard") && strings.HasSuffix(g.Name, ".queue_depth_high") && g.Value > high {
			high = g.Value
		}
	}
	return float64(high)
}
