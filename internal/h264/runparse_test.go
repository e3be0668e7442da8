package h264

import (
	"crypto/sha256"
	"fmt"
	"math/rand"
	"testing"
)

// The inter residual parser takes a run of empty blocks (each the single
// coeff_token bit 1) as the leading ones of the reader's 64-bit cache.
// These streams put such runs where that can go wrong: across cache
// refills at every alignment, flush against the end of the stream, and
// cut off by it. Each case must leave the Activity and error the
// per-block parser left, recorded before the run parser existed, and
// agree with refDecoder.

const runW, runH = 128, 64 // 8x4 macroblocks

// runStream returns an annex-B stream: the encoder's SPS, PPS and IDR
// slice of a flat picture, then a P slice (frame 1) whose macroblock
// layer is mbs; cut drops that many trailing bytes of the P payload.
func runStream(t *testing.T, mbs func(w *BitWriter), cut int) []byte {
	t.Helper()
	flat, err := NewFrame(runW, runH)
	if err != nil {
		t.Fatal(err)
	}
	for i := range flat.Y {
		flat.Y[i] = uint8(90 + i%7)
	}
	enc, err := NewEncoder(EncoderConfig{Width: runW, Height: runH, QP: 30, IntraPeriod: 8})
	if err != nil {
		t.Fatal(err)
	}
	_, units, err := enc.EncodeSequence([]*Frame{flat})
	if err != nil {
		t.Fatal(err)
	}
	w := NewBitWriter()
	w.WriteUE(uint32(SliceP))
	w.WriteUE(1)
	mbs(w)
	payload := w.Bytes(false)
	units = append(units, NAL{Type: NALSliceNonIDR, RefIDC: 1, Payload: payload[:len(payload)-cut]})
	stream, err := MarshalStream(units)
	if err != nil {
		t.Fatal(err)
	}
	return stream
}

// writeInterMB writes a coded inter macroblock: skip flag 0, the motion
// vector, then sixteen blocks, empty except those flagged in coded,
// which carry a small residual.
func writeInterMB(w *BitWriter, mv MV, coded uint16) {
	w.WriteBit(0)
	w.WriteSE(int32(mv.X))
	w.WriteSE(int32(mv.Y))
	for blk := 0; blk < 16; blk++ {
		var b Block4
		if coded>>blk&1 != 0 {
			b[0], b[5] = int32(blk%3+1), -1
		}
		EncodeResidual(w, b)
	}
}

// runOutcome decodes stream with the Decoder, checks it against
// refDecoder, and returns the Activity and error as one string.
func runOutcome(t *testing.T, stream []byte) string {
	t.Helper()
	var out string
	withBothDispatch(t, func(t *testing.T, on bool) {
		checkDecodeMatchesRef(t, stream, true, 0)
		dec := NewDecoder()
		_, err := dec.DecodeStream(stream)
		out = fmt.Sprintf("%+v err=%v", dec.Activity(), err)
	})
	return out
}

// emptyRow writes n all-empty inter macroblocks at mv (0,0), 19 bits each.
func emptyRow(w *BitWriter, n int) {
	for i := 0; i < n; i++ {
		writeInterMB(w, MV{}, 0)
	}
}

func TestEmptyRunParse(t *testing.T) {
	// 4 header bits + 30 empty macroblocks at 19 bits + two at mv (1,0),
	// 21 bits each: 616 bits, a whole 77 bytes, so the last macroblock's
	// run of sixteen ones ends on the stream's last bit.
	flush := func(w *BitWriter) {
		emptyRow(w, 30)
		writeInterMB(w, MV{1, 0}, 0)
		writeInterMB(w, MV{1, 0}, 0)
	}
	// The last macroblock stops after its header and five empty blocks;
	// the writer pads the byte with zeros, which parse as the start of a
	// coeff_token that the stream's end truncates.
	padded := func(w *BitWriter) {
		emptyRow(w, 31)
		w.WriteBits(0b011, 3)
		w.WriteBits(0b11111, 5)
	}
	for _, c := range []struct {
		name string
		mbs  func(w *BitWriter)
		cut  int
		want string
	}{
		{"flush with end", flush, 0,
			"{HeaderBits:704 ResidualBits:1042 BlocksIQIT:1024 IntraBlocks:512 InterBlocks:512 SkipMBs:0 CodedMBs:64 DF:{edgesConsidered:1952 edgesExamined:3952 edgesFiltered:3952 samplesTouch:17472} BufferBytes:0 FramesOut:2 Concealed:0} err=<nil>"},
		{"cut mid-run", flush, 1,
			"{HeaderBits:704 ResidualBits:1034 BlocksIQIT:1016 IntraBlocks:512 InterBlocks:505 SkipMBs:0 CodedMBs:63 DF:{edgesConsidered:976 edgesExamined:3904 edgesFiltered:3904 samplesTouch:17280} BufferBytes:0 FramesOut:1 Concealed:0} err=frame 1 MB (7,3): h264: malformed bitstream: read past end at bit 608"},
		{"cut before run", flush, 2,
			"{HeaderBits:704 ResidualBits:1026 BlocksIQIT:1008 IntraBlocks:512 InterBlocks:497 SkipMBs:0 CodedMBs:63 DF:{edgesConsidered:976 edgesExamined:3904 edgesFiltered:3904 samplesTouch:17280} BufferBytes:0 FramesOut:1 Concealed:0} err=frame 1 MB (7,3): h264: malformed bitstream: read past end at bit 600"},
		{"zero padded mid-run", padded, 0,
			"{HeaderBits:700 ResidualBits:1031 BlocksIQIT:1013 IntraBlocks:512 InterBlocks:502 SkipMBs:0 CodedMBs:63 DF:{edgesConsidered:976 edgesExamined:3904 edgesFiltered:3904 samplesTouch:17280} BufferBytes:0 FramesOut:1 Concealed:0} err=frame 1 MB (7,3): h264: malformed bitstream: read past end at bit 608"},
	} {
		if got := runOutcome(t, runStream(t, c.mbs, c.cut)); got != c.want {
			t.Errorf("%s:\n  got  %s\n  want %s", c.name, got, c.want)
		}
	}
}

// TestEmptyRunParseAlignments sweeps run positions across the reader's
// refills: each variant shifts the macroblock layer by a different
// number of bits (its first macroblocks are skips), then mixes coded
// macroblocks with assorted vectors (some predicting past the
// reference's edge), runs of every length, coded blocks and skip
// macroblocks, whose flag 1 must not be taken into the run before it. The hash covers every
// variant's Activity and error, including the truncated ones.
func TestEmptyRunParseAlignments(t *testing.T) {
	mvs := []MV{{0, 0}, {1, 0}, {-3, 2}, {-20, 0}, {0, 40}, {17, -17}, {5, 5}}
	h := sha256.New()
	for v := 0; v < 64; v++ {
		rng := rand.New(rand.NewSource(int64(v)))
		mbs := func(w *BitWriter) {
			for i := 0; i < v%5; i++ {
				w.WriteBit(1) // skip
			}
			for mb := v % 5; mb < runW/16*runH/16; mb++ {
				if rng.Intn(6) == 0 {
					w.WriteBit(1) // a skip flag right after a run
					continue
				}
				var coded uint16
				for blk := 0; blk < 16; blk++ {
					if rng.Intn(9) == 0 {
						coded |= 1 << blk
					}
				}
				writeInterMB(w, mvs[rng.Intn(len(mvs))], coded)
			}
		}
		fmt.Fprintf(h, "%s\n", runOutcome(t, runStream(t, mbs, v%3)))
	}
	const want = "0a86eb43bead92e82aeb9fedd30f638f956c890be09e23ebfccbcfd567dd8f64"
	if got := fmt.Sprintf("%x", h.Sum(nil)); got != want {
		t.Errorf("outcomes hash %s, want %s", got, want)
	}
}
