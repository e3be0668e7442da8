package h264

import (
	"crypto/sha256"
	"fmt"
	"hash"
	"testing"
)

// Golden decoded output: the sha256 of every decoded plane (Y, Cb, Cr of
// each output frame in order, concealment frames included) and the full
// Activity record, per operating mode, for the calibration clips at 6 and
// 24 frames. The bitstream goldens (goldenstream_test.go) pin the
// encoder; these pin what the decoder makes of its streams, so a decoder
// refactor cannot move a pixel or a modeled-work count. Values were
// recorded from the per-4x4-block decoder and must never change.
var goldenDecodes = []struct {
	name   string
	frames int
	planes [NumModes]string
	act    [NumModes]string
}{
	{
		name: "calib6", frames: 6,
		planes: [NumModes]string{
			ModeStandard: "5dbcea57a10a75b9bcaab8171d84b3286f0323866798fe26261c19b7f7ecddb0",
			ModeDeletion: "5dbcea57a10a75b9bcaab8171d84b3286f0323866798fe26261c19b7f7ecddb0",
			ModeDFOff:    "350a77fef115f77324d3876abcfaee76e6d921c03bf2ec7291ec85eaf6556398",
			ModeCombined: "350a77fef115f77324d3876abcfaee76e6d921c03bf2ec7291ec85eaf6556398",
		},
		act: [NumModes]string{
			ModeStandard: "{HeaderBits:6337 ResidualBits:9864 BlocksIQIT:7040 IntraBlocks:1584 InterBlocks:7920 SkipMBs:154 CodedMBs:440 DF:{edgesConsidered:18528 edgesExamined:27392 edgesFiltered:26269 samplesTouch:109968} BufferBytes:0 FramesOut:6 Concealed:0}",
			ModeDeletion: "{HeaderBits:6337 ResidualBits:9864 BlocksIQIT:7040 IntraBlocks:1584 InterBlocks:7920 SkipMBs:154 CodedMBs:440 DF:{edgesConsidered:18528 edgesExamined:27392 edgesFiltered:26269 samplesTouch:109968} BufferBytes:0 FramesOut:6 Concealed:0}",
			ModeDFOff:    "{HeaderBits:6337 ResidualBits:9864 BlocksIQIT:7040 IntraBlocks:1584 InterBlocks:7920 SkipMBs:154 CodedMBs:440 DF:{edgesConsidered:0 edgesExamined:0 edgesFiltered:0 samplesTouch:0} BufferBytes:0 FramesOut:6 Concealed:0}",
			ModeCombined: "{HeaderBits:6337 ResidualBits:9864 BlocksIQIT:7040 IntraBlocks:1584 InterBlocks:7920 SkipMBs:154 CodedMBs:440 DF:{edgesConsidered:0 edgesExamined:0 edgesFiltered:0 samplesTouch:0} BufferBytes:0 FramesOut:6 Concealed:0}",
		},
	},
	{
		name: "calib24", frames: 24,
		planes: [NumModes]string{
			ModeStandard: "ee0edc9b53e6d6c3c10b723402dc0d84ec2540b4eab8a9a1f6c9d6c57aed1fd6",
			ModeDeletion: "8a07985ace065fffbfad4b42b2f5a0be48b1afbf1692e2152fd6e6e9a0d8683a",
			ModeDFOff:    "aa3773a02a49f9a9bfc7cb058dfd9c853ec2a5e94bcb16ebf6eac9a6381e31b8",
			ModeCombined: "00a9007944b77b8b71c29786e40d6d7e3e91fbe18d7a72af7f1982184c9f1a8e",
		},
		act: [NumModes]string{
			ModeStandard: "{HeaderBits:17760 ResidualBits:38772 BlocksIQIT:23920 IntraBlocks:3168 InterBlocks:34848 SkipMBs:881 CodedMBs:1495 DF:{edgesConsidered:74112 edgesExamined:86352 edgesFiltered:80935 samplesTouch:331705} BufferBytes:0 FramesOut:24 Concealed:0}",
			ModeDeletion: "{HeaderBits:17096 ResidualBits:37333 BlocksIQIT:22528 IntraBlocks:3168 InterBlocks:31680 SkipMBs:770 CodedMBs:1408 DF:{edgesConsidered:67936 edgesExamined:83072 edgesFiltered:77879 samplesTouch:319683} BufferBytes:0 FramesOut:24 Concealed:2}",
			ModeDFOff:    "{HeaderBits:17760 ResidualBits:38772 BlocksIQIT:23920 IntraBlocks:3168 InterBlocks:34848 SkipMBs:881 CodedMBs:1495 DF:{edgesConsidered:0 edgesExamined:0 edgesFiltered:0 samplesTouch:0} BufferBytes:0 FramesOut:24 Concealed:0}",
			ModeCombined: "{HeaderBits:17096 ResidualBits:37333 BlocksIQIT:22528 IntraBlocks:3168 InterBlocks:31680 SkipMBs:770 CodedMBs:1408 DF:{edgesConsidered:0 edgesExamined:0 edgesFiltered:0 samplesTouch:0} BufferBytes:0 FramesOut:24 Concealed:2}",
		},
	},
}

// probeClip encodes a calibration clip and pre-applies every mode's
// Input Selector, as the fleet's video probe does at set-up.
func probeClip(tb testing.TB, frames int) (streams [NumModes][]byte, total int) {
	tb.Helper()
	src, err := GenerateVideo(CalibrationVideoConfig(frames))
	if err != nil {
		tb.Fatal(err)
	}
	enc, err := NewEncoder(CalibrationEncoderConfig())
	if err != nil {
		tb.Fatal(err)
	}
	_, units, err := enc.EncodeSequence(src)
	if err != nil {
		tb.Fatal(err)
	}
	for _, mode := range Modes() {
		kept, _ := ApplySelector(units, mode.Selector())
		if streams[mode], err = MarshalStream(kept); err != nil {
			tb.Fatal(err)
		}
	}
	return streams, len(src)
}

// probeDecode decodes one stream the way a fleet shard's probe does:
// knob set for the mode, stream state reset, output slice recycled, the
// trailing deleted units concealed up to total frames.
func probeDecode(dec *Decoder, mode DecoderMode, stream []byte, total int, out []*Frame) ([]*Frame, error) {
	dec.SetDeblock(mode.DeblockEnabled())
	dec.Reset()
	out, err := dec.DecodeStreamInto(stream, out)
	if err != nil {
		return nil, err
	}
	return append(out, dec.ConcealTo(total)...), nil
}

func hashPlanes(h hash.Hash, frames []*Frame) {
	for _, f := range frames {
		h.Write(f.Y)
		h.Write(f.Cb)
		h.Write(f.Cr)
	}
}

func TestGoldenDecode(t *testing.T) {
	for _, g := range goldenDecodes {
		streams, total := probeClip(t, g.frames)
		for _, mode := range Modes() {
			dec := NewDecoder()
			frames, err := probeDecode(dec, mode, streams[mode], total, nil)
			if err != nil {
				t.Fatalf("%s/%s: %v", g.name, mode, err)
			}
			if len(frames) != total {
				t.Fatalf("%s/%s: %d frames, want %d", g.name, mode, len(frames), total)
			}
			h := sha256.New()
			hashPlanes(h, frames)
			planes := fmt.Sprintf("%x", h.Sum(nil))
			act := fmt.Sprintf("%+v", dec.Activity())
			t.Logf("%s/%s planes %s\n  activity %s", g.name, mode, planes, act)
			if planes != g.planes[mode] {
				t.Errorf("%s/%s decoded planes changed:\n  got  %s\n  want %s", g.name, mode, planes, g.planes[mode])
			}
			if act != g.act[mode] {
				t.Errorf("%s/%s activity changed:\n  got  %s\n  want %s", g.name, mode, act, g.act[mode])
			}
		}
	}
}

// TestProbeDecodeAllocs guards the fleet's probe loop: with a pool
// attached and the frames handed back after each decode, a probe decode
// allocates nothing in any mode (the steady state BenchmarkProbeDecode
// measures).
func TestProbeDecodeAllocs(t *testing.T) {
	streams, total := probeClip(t, 6)
	for _, mode := range Modes() {
		dec := NewDecoder()
		pool := NewFramePool()
		dec.SetPool(pool)
		var out []*Frame
		probe := func() {
			var err error
			if out, err = probeDecode(dec, mode, streams[mode], total, out[:0]); err != nil {
				t.Fatalf("%s: %v", mode, err)
			}
			pool.PutAll(out)
		}
		probe() // fill the pool and size the scratch buffers
		if n := testing.AllocsPerRun(10, probe); n != 0 {
			t.Errorf("%s: %.1f allocations per probe decode, want 0", mode, n)
		}
	}
}
