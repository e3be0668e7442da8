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

// The intra macroblock reads its ue(v) mode codes 1, 010 and 011 from
// the reader's cache and hands every other code, and a cache holding
// fewer than three bits, to ReadUE. These streams put mode codes where
// that can go wrong: cut off by the stream's end after one or two bits,
// codes >= 3 with short and long prefixes, codes straddling cache
// refills at every alignment, and a block whose residual the end cuts.
// Each case must leave the Activity and error recorded before the cache
// parse existed, and agree with refDecoder.

// intraStream returns an annex-B stream: the encoder's SPS and PPS for a
// runW x runH picture at QP 30, then an IDR slice (frame 0) whose
// macroblock layer is mbs; cut drops that many trailing bytes of its
// payload.
func intraStream(t testing.TB, mbs func(w *BitWriter), cut int) []byte {
	t.Helper()
	flat, err := NewFrame(runW, runH)
	if err != nil {
		t.Fatal(err)
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
	w.WriteUE(uint32(SliceI))
	w.WriteUE(0)
	mbs(w)
	payload := w.Bytes(false)
	units = append(units[:2:2], NAL{Type: NALSliceIDR, RefIDC: 3, Payload: payload[:len(payload)-cut]})
	stream, err := MarshalStream(units)
	if err != nil {
		t.Fatal(err)
	}
	return stream
}

// writeIntraBlock writes one intra block: its mode code, then either the
// empty residual (the bit 1) or levels 2 and -1 at scan positions 0 and
// 2, whose 15-bit residual makes an odd-length block.
func writeIntraBlock(w *BitWriter, mode uint32, coded bool) {
	w.WriteUE(mode)
	var b Block4
	if coded {
		b[0], b[4] = 2, -1
	}
	EncodeResidual(w, b)
}

// intraBlocks writes n blocks, the modes cycling through vertical,
// horizontal and DC from first, every seventh block coded.
func intraBlocks(w *BitWriter, n int, first uint32) {
	for i := 0; i < n; i++ {
		writeIntraBlock(w, (first+uint32(i))%3, i%7 == 6)
	}
}

// alignIntra writes empty vertical blocks (two bits each), after one
// odd-length block when the parity is wrong, until the stream's length
// is rem modulo 8.
func alignIntra(w *BitWriter, rem int) {
	if (w.Len()-rem)%2 != 0 {
		writeIntraBlock(w, 0, true)
	}
	for w.Len()%8 != rem {
		writeIntraBlock(w, 0, false)
	}
}

func TestIntraModeParse(t *testing.T) {
	// The picture's last mode code is 010 or 011 cut to its first one
	// or two bits, which end the payload.
	cutCode := func(kept int) func(w *BitWriter) {
		return func(w *BitWriter) {
			intraBlocks(w, 37, 0)
			alignIntra(w, 8-kept)
			w.WriteBits(0b01>>(2-kept), kept)
		}
	}
	// 45 blocks, then the given mode code.
	badMode := func(mode uint32) func(w *BitWriter) {
		return func(w *BitWriter) {
			intraBlocks(w, 45, 1)
			w.WriteUE(mode)
			w.WriteBits(0xffff, 16)
		}
	}
	for _, c := range []struct {
		name string
		mbs  func(w *BitWriter)
		cut  int
		want string
	}{
		{"whole picture", func(w *BitWriter) { intraBlocks(w, 16*runW/16*runH/16, 2) }, 0,
			"{HeaderBits:1220 ResidualBits:1461 BlocksIQIT:512 IntraBlocks:512 InterBlocks:0 SkipMBs:0 CodedMBs:32 DF:{edgesConsidered:976 edgesExamined:3904 edgesFiltered:3877 samplesTouch:15655} BufferBytes:0 FramesOut:1 Concealed:0} err=<nil>"},
		{"code cut after 1 bit", cutCode(1), 0,
			"{HeaderBits:111 ResidualBits:102 BlocksIQIT:37 IntraBlocks:37 InterBlocks:0 SkipMBs:0 CodedMBs:2 DF:{edgesConsidered:0 edgesExamined:0 edgesFiltered:0 samplesTouch:0} BufferBytes:0 FramesOut:0 Concealed:0} err=frame 0 MB (2,0): h264: malformed bitstream: read past end at bit 192"},
		{"code cut after 2 bits", cutCode(2), 0,
			"{HeaderBits:112 ResidualBits:116 BlocksIQIT:38 IntraBlocks:38 InterBlocks:0 SkipMBs:0 CodedMBs:2 DF:{edgesConsidered:0 edgesExamined:0 edgesFiltered:0 samplesTouch:0} BufferBytes:0 FramesOut:0 Concealed:0} err=frame 0 MB (2,0): h264: malformed bitstream: read past end at bit 208"},
		{"mode 3", badMode(3), 0,
			"{HeaderBits:136 ResidualBits:123 BlocksIQIT:45 IntraBlocks:45 InterBlocks:0 SkipMBs:0 CodedMBs:2 DF:{edgesConsidered:0 edgesExamined:0 edgesFiltered:0 samplesTouch:0} BufferBytes:0 FramesOut:0 Concealed:0} err=frame 0 MB (2,0): h264: unknown intra mode 3"},
		{"mode 6", badMode(6), 0,
			"{HeaderBits:136 ResidualBits:123 BlocksIQIT:45 IntraBlocks:45 InterBlocks:0 SkipMBs:0 CodedMBs:2 DF:{edgesConsidered:0 edgesExamined:0 edgesFiltered:0 samplesTouch:0} BufferBytes:0 FramesOut:0 Concealed:0} err=frame 0 MB (2,0): h264: unknown intra mode 6"},
		{"mode 5000", badMode(5000), 0,
			"{HeaderBits:156 ResidualBits:123 BlocksIQIT:45 IntraBlocks:45 InterBlocks:0 SkipMBs:0 CodedMBs:2 DF:{edgesConsidered:0 edgesExamined:0 edgesFiltered:0 samplesTouch:0} BufferBytes:0 FramesOut:0 Concealed:0} err=frame 0 MB (2,0): h264: unknown intra mode 5000"},
		{"prefix of 40 zeros", func(w *BitWriter) {
			intraBlocks(w, 21, 0)
			w.WriteBits(0, 40)
			w.WriteBits(0xff, 8)
		}, 0,
			"{HeaderBits:75 ResidualBits:60 BlocksIQIT:21 IntraBlocks:21 InterBlocks:0 SkipMBs:0 CodedMBs:1 DF:{edgesConsidered:0 edgesExamined:0 edgesFiltered:0 samplesTouch:0} BufferBytes:0 FramesOut:0 Concealed:0} err=frame 0 MB (1,0): h264: malformed bitstream: ue(v) prefix too long"},
		{"residual cut", func(w *BitWriter) {
			intraBlocks(w, 51, 0)
			alignIntra(w, 0)
			writeIntraBlock(w, 1, true)
		}, 1,
			"{HeaderBits:149 ResidualBits:156 BlocksIQIT:52 IntraBlocks:53 InterBlocks:0 SkipMBs:0 CodedMBs:3 DF:{edgesConsidered:0 edgesExamined:0 edgesFiltered:0 samplesTouch:0} BufferBytes:0 FramesOut:0 Concealed:0} err=frame 0 MB (3,0): h264: malformed bitstream: read past end at bit 296"},
	} {
		if got := runOutcome(t, intraStream(t, c.mbs, c.cut)); got != c.want {
			t.Errorf("%s:\n  got  %s\n  want %s", c.name, got, c.want)
		}
	}
}

// mixedIntraStream is an intra picture of random modes, each of the
// three at the picture's top and left edges too, with one block in five
// coded: FuzzDecodeDiff's intra-heavy seed.
func mixedIntraStream(tb testing.TB) []byte {
	rng := rand.New(rand.NewSource(41))
	return intraStream(tb, func(w *BitWriter) {
		for i := 0; i < 16*runW/16*runH/16; i++ {
			writeIntraBlock(w, uint32(rng.Intn(3)), rng.Intn(5) == 0)
		}
	}, 0)
}

// TestIntraModeParseAlignments sweeps mode codes across the reader's
// refills: each variant shifts the macroblock layer by a different
// number of bits, then writes random modes (frame-edge blocks included)
// with random coded blocks, and cuts 0 to 2 trailing bytes. The hash
// covers every variant's Activity and error.
func TestIntraModeParseAlignments(t *testing.T) {
	h := sha256.New()
	for v := 0; v < 64; v++ {
		rng := rand.New(rand.NewSource(int64(v)))
		mbs := func(w *BitWriter) {
			alignIntra(w, v%8)
			for i := 0; i < 16*runW/16*runH/16; i++ {
				writeIntraBlock(w, uint32(rng.Intn(3)), rng.Intn(8) == 0)
			}
		}
		fmt.Fprintf(h, "%s\n", runOutcome(t, intraStream(t, mbs, v%3)))
	}
	const want = "99120b73f461e530c9aa208175f51ea61405695acdd9d6b750f8116e6c5202f5"
	if got := fmt.Sprintf("%x", h.Sum(nil)); got != want {
		t.Errorf("outcomes hash %s, want %s", got, want)
	}
}
