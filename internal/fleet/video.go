package fleet

import "affectedge/internal/h264"

// The fleet's video workload: every session periodically decodes a shared
// probe clip in whatever operating mode its manager currently selects,
// exercising the affect-adaptive decoder (Input Selector deletion plus the
// deblocking knob) at fleet scale. The probe composes with the rest of the
// deterministic contract:
//
//   - The clip is generated and encoded once at New from the fleet seed,
//     and the per-mode Input Selector passes are pre-applied, so a probe
//     round is pure decode work over shared read-only streams.
//   - Each shard owns one pooled decoder; shards fan out over the
//     internal/parallel pool, so probe decoding batches across shards the
//     same way classification does, and the FramePool keeps steady-state
//     plane allocations at zero.
//   - Probing only reads session state (Manager.DecoderMode), so a run's
//     fingerprint is identical with the probe on or off, at any worker
//     count.

// buildVideoProbe encodes the probe clip and pre-applies the Input
// Selector for every decoder mode. Called from New when VideoEvery > 0.
func (f *Fleet) buildVideoProbe() error {
	vc := h264.CalibrationVideoConfig(f.cfg.VideoFrames)
	vc.Seed = f.cfg.Seed
	src, err := h264.GenerateVideo(vc)
	if err != nil {
		return err
	}
	enc, err := h264.NewEncoder(h264.CalibrationEncoderConfig())
	if err != nil {
		return err
	}
	stream, units, err := enc.EncodeSequence(src)
	if err != nil {
		return err
	}
	f.videoTotal = len(src)
	for _, mode := range h264.Modes() {
		sel := mode.Selector()
		if !sel.Enabled() {
			f.videoStreams[mode] = stream
			continue
		}
		kept, _ := h264.ApplySelector(units, sel)
		ms, err := h264.MarshalStream(kept)
		if err != nil {
			return err
		}
		f.videoStreams[mode] = ms
	}
	return nil
}

// probeVideo runs one probe round: every session on the shard decodes the
// clip in its manager's current mode on the shard's pooled decoder.
// Output frames (decoded and concealed alike) go straight back to the
// pool — the probe measures decode work, nobody displays the frames.
// Runs single-goroutine per shard under the RunTicks ForEach partition.
func (sh *shard) probeVideo() error {
	if sh.vdec == nil {
		sh.vpool = h264.NewFramePool()
		sh.vdec = h264.NewDecoder()
		sh.vdec.SetPool(sh.vpool)
	}
	for _, id := range sh.order {
		s := sh.sessions[id]
		mode := s.mgr.DecoderMode()
		sh.vdec.SetDeblock(mode.DeblockEnabled())
		before := sh.vdec.Activity()
		sh.vdec.Reset()
		frames, err := sh.vdec.DecodeStreamInto(sh.f.videoStreams[mode], sh.vframes[:0])
		if err != nil {
			return err
		}
		frames = append(frames, sh.vdec.ConcealTo(sh.f.videoTotal)...)
		after := sh.vdec.Activity()
		sh.videoDecodes++
		sh.videoFrames += int64(after.FramesOut - before.FramesOut)
		sh.videoConcealed += int64(after.Concealed - before.Concealed)
		sh.vpool.PutAll(frames)
		sh.vframes = frames[:0]
		sh.f.m.videoDecodes.Inc()
	}
	return nil
}
