package h264

import (
	"bytes"
	"testing"

	"affectedge/internal/simd"
)

// diffStreams encodes the genuine streams FuzzDecodeDiff starts from:
// small clips with motion, B-frames and QPs that leave most residuals
// zero but not all; the fleet's 6-frame probe clip in every mode; a flat
// panning clip whose every inter macroblock is coded with a nonzero
// vector and almost no residual (long runs of empty blocks, and border
// macroblocks predicted past the reference's edge); and an intra
// picture mixing all three modes at random, the picture's edges
// included (mixedIntraStream). It also returns the one stream the
// decoders must refuse: a tiny clip whose SPS sets the chroma bit.
func diffStreams(tb testing.TB) [][]byte {
	tb.Helper()
	var out [][]byte
	for _, c := range []struct{ w, h, frames, qp, bframes int }{
		{48, 32, 5, 30, 0},
		{48, 32, 6, 24, 2},
		{32, 48, 4, 40, 1},
	} {
		vc := DefaultVideoConfig(c.frames)
		vc.Width, vc.Height, vc.Seed = c.w, c.h, int64(c.w*c.qp)
		src, err := GenerateVideo(vc)
		if err != nil {
			tb.Fatal(err)
		}
		enc, err := NewEncoder(EncoderConfig{Width: c.w, Height: c.h, QP: c.qp, IntraPeriod: 4,
			BFrames: c.bframes, SearchWindow: 3})
		if err != nil {
			tb.Fatal(err)
		}
		stream, _, err := enc.EncodeSequence(src)
		if err != nil {
			tb.Fatal(err)
		}
		out = append(out, stream)
	}
	pan, err := GenerateVideo(VideoConfig{Width: 64, Height: 48, Frames: 5, PanSpeed: 3, Detail: 0.3, Seed: 5})
	if err != nil {
		tb.Fatal(err)
	}
	enc, err := NewEncoder(EncoderConfig{Width: 64, Height: 48, QP: 36, IntraPeriod: 8, SearchWindow: 4})
	if err != nil {
		tb.Fatal(err)
	}
	panStream, _, err := enc.EncodeSequence(pan)
	if err != nil {
		tb.Fatal(err)
	}
	probe, _ := probeClip(tb, 6)
	return append(out, probe[ModeStandard], probe[ModeDeletion], chromaSPSStream(tb), panStream, mixedIntraStream(tb))
}

// maxDiffMBs bounds the picture size a fuzzed SPS may ask for, so a
// mutated header cannot make one input allocate hundreds of megabytes.
const maxDiffMBs = 16 * 16

// spsTooLarge reports whether any SPS in the stream asks for more than
// maxDiffMBs macroblocks.
func spsTooLarge(stream []byte) bool {
	units, err := SplitStream(stream)
	if err != nil {
		return false
	}
	for _, u := range units {
		if u.Type != NALSPS {
			continue
		}
		r := NewBitReader(u.Payload)
		mbw, err1 := r.ReadUE()
		mbh, err2 := r.ReadUE()
		if err1 == nil && err2 == nil && (uint64(mbw)+1)*(uint64(mbh)+1) > maxDiffMBs {
			return true
		}
	}
	return false
}

// checkDecodeMatchesRef decodes stream with the production Decoder
// (pooled, concealing up to total frames) and with refDecoder, and fails
// on any difference in whether they error, the error text, the frames
// or the Activity record.
func checkDecodeMatchesRef(t *testing.T, stream []byte, deblock bool, total int) {
	t.Helper()
	ref := &refDecoder{deblock: deblock}
	want, wantErr := ref.decodeStream(stream)
	if wantErr == nil {
		want = append(want, ref.concealTo(total)...)
	}
	dec := NewDecoder()
	dec.SetDeblock(deblock)
	dec.SetPool(NewFramePool())
	got, gotErr := dec.DecodeStreamInto(stream, nil)
	if gotErr == nil {
		got = append(got, dec.ConcealTo(total)...)
	}
	if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
		t.Fatalf("simd=%v deblock=%v: error %v, reference %v", simd.Enabled(), deblock, gotErr, wantErr)
	}
	if ga, wa := dec.Activity(), ref.activity; ga != wa {
		t.Fatalf("simd=%v deblock=%v: activity\n  got  %+v\n  want %+v", simd.Enabled(), deblock, ga, wa)
	}
	if len(got) != len(want) {
		t.Fatalf("simd=%v deblock=%v: %d frames, reference %d", simd.Enabled(), deblock, len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.Width != w.Width || g.Height != w.Height ||
			!bytes.Equal(g.Y, w.Y) || !bytes.Equal(g.Cb, w.Cb) || !bytes.Equal(g.Cr, w.Cr) {
			t.Fatalf("simd=%v deblock=%v: frame %d differs from the reference", simd.Enabled(), deblock, i)
		}
	}
}

// FuzzDecodeDiff drives the macroblock-granular Decoder against the
// per-4x4-block refDecoder over mutated and truncated streams, with the
// deblocking filter on and off and at both SIMD dispatch settings: the
// two must agree on frames, Activity and whether (and how) they fail.
func FuzzDecodeDiff(f *testing.F) {
	for i, s := range diffStreams(f) {
		f.Add(s, uint16(len(s)), byte(i))
		f.Add(s, uint16(len(s)/2), byte(i+1))
	}
	f.Add([]byte{0, 0, 1, 0x67, 0x42}, uint16(5), byte(0))
	f.Fuzz(func(t *testing.T, stream []byte, cut uint16, flags byte) {
		if int(cut) < len(stream) {
			stream = stream[:cut]
		}
		if spsTooLarge(stream) {
			return
		}
		deblock := flags&1 == 0
		total := int(flags >> 1 & 15)
		prev := simd.Enabled()
		defer simd.SetEnabled(prev)
		for _, on := range []bool{true, false} {
			simd.SetEnabled(on)
			checkDecodeMatchesRef(t, stream, deblock, total)
		}
	})
}

// TestDecodeResizedReference decodes a stream whose second SPS enlarges
// the picture before an inter slice: the reference frame is smaller
// than the picture being reconstructed, so skip and coded macroblocks
// past its edge must be predicted with edge extension, as the reference
// decoder does, rather than copied with the new picture's stride.
func TestDecodeResizedReference(t *testing.T) {
	small, err := encodeTinyStream()
	if err != nil {
		t.Fatal(err)
	}
	vc := VideoConfig{Width: 32, Height: 32, Frames: 2, Seed: 3}
	src, err := GenerateVideo(vc)
	if err != nil {
		t.Fatal(err)
	}
	enc, err := NewEncoder(EncoderConfig{Width: 32, Height: 32, QP: 30, IntraPeriod: 8})
	if err != nil {
		t.Fatal(err)
	}
	_, units, err := enc.EncodeSequence(src)
	if err != nil {
		t.Fatal(err)
	}
	// Keep the 32x32 SPS/PPS and its P slice (frame 1), renumbered to
	// follow the 16x16 stream's three frames, so the P slice predicts
	// from the last 16x16 picture.
	var tail []NAL
	for _, u := range units {
		switch u.Type {
		case NALSPS, NALPPS:
			tail = append(tail, u)
		case NALSliceNonIDR:
			tail = append(tail, renumberSlice(t, u, 3))
		}
	}
	ts, err := MarshalStream(tail)
	if err != nil {
		t.Fatal(err)
	}
	stream := append(append([]byte(nil), small...), ts...)
	withBothDispatch(t, func(t *testing.T, on bool) {
		checkDecodeMatchesRef(t, stream, true, 0)
		checkDecodeMatchesRef(t, stream, false, 6)
	})
	frames, err := NewDecoder().DecodeStream(stream)
	if err != nil {
		t.Fatal(err)
	}
	if len(frames) != 4 || frames[3].Width != 32 || frames[3].Height != 32 {
		t.Fatalf("%d frames; want 4 ending with a 32x32 picture", len(frames))
	}
}

// renumberSlice rewrites a slice NAL's frame number, copying the rest of
// its payload bit for bit.
func renumberSlice(t *testing.T, u NAL, num uint32) NAL {
	t.Helper()
	r := NewBitReader(u.Payload)
	st, err := r.ReadUE()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.ReadUE(); err != nil {
		t.Fatal(err)
	}
	w := NewBitWriter()
	w.WriteUE(st)
	w.WriteUE(num)
	for {
		b, err := r.ReadBit()
		if err != nil {
			break
		}
		w.WriteBit(b)
	}
	u.Payload = w.Bytes(false)
	return u
}
