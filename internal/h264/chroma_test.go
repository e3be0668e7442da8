package h264

import (
	"errors"
	"testing"
)

// The model codes luma only: the encoder writes the SPS chroma bit as 0,
// the decoders refuse a stream that sets it, and Frame's Cb/Cr planes
// are carried through decoding untouched (zero).

func TestChromaLumaOnlyStreamsUnaffected(t *testing.T) {
	// Luma-only streams must decode exactly as before, leaving chroma at
	// zero values.
	cfg := DefaultVideoConfig(4)
	cfg.Width, cfg.Height = 48, 48
	src, err := GenerateVideo(cfg)
	if err != nil {
		t.Fatal(err)
	}
	enc, err := NewEncoder(EncoderConfig{
		Width: 48, Height: 48, QP: 28, IntraPeriod: 4, BFrames: 0, SearchWindow: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	stream, _, err := enc.EncodeSequence(src)
	if err != nil {
		t.Fatal(err)
	}
	out, err := NewDecoder().DecodeStream(stream)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range out[0].Cb {
		if v != 0 {
			t.Fatal("luma-only stream produced chroma samples")
		}
	}
}

// chromaSPSStream returns encodeTinyStream's stream with the chroma bit
// of its SPS set and everything else unchanged.
func chromaSPSStream(tb testing.TB) []byte {
	tb.Helper()
	stream, err := encodeTinyStream()
	if err != nil {
		tb.Fatal(err)
	}
	units, err := SplitStream(stream)
	if err != nil {
		tb.Fatal(err)
	}
	for i, u := range units {
		if u.Type != NALSPS {
			continue
		}
		r := NewBitReader(u.Payload)
		mbw, err1 := r.ReadUE()
		mbh, err2 := r.ReadUE()
		if err1 != nil || err2 != nil {
			tb.Fatal("unreadable SPS")
		}
		w := NewBitWriter()
		w.WriteUE(mbw)
		w.WriteUE(mbh)
		w.WriteBit(1)
		units[i].Payload = w.Bytes(true)
	}
	out, err := MarshalStream(units)
	if err != nil {
		tb.Fatal(err)
	}
	return out
}

// TestDecodeRefusesChromaSPS requires both decoders to refuse the SPS
// itself, not some later slice that fails to parse as chroma.
func TestDecodeRefusesChromaSPS(t *testing.T) {
	stream := chromaSPSStream(t)
	units, err := SplitStream(stream)
	if err != nil {
		t.Fatal(err)
	}
	if units[0].Type != NALSPS {
		t.Fatalf("first unit is %v, want the SPS", units[0].Type)
	}
	if _, err := NewDecoder().DecodeNAL(units[0]); !errors.Is(err, ErrBitstream) {
		t.Errorf("Decoder SPS: error %v, want one wrapping ErrBitstream", err)
	}
	if _, err := (&refDecoder{}).decodeNAL(units[0], nil); !errors.Is(err, ErrBitstream) {
		t.Errorf("refDecoder SPS: error %v, want one wrapping ErrBitstream", err)
	}
	if _, err := NewDecoder().DecodeStream(stream); !errors.Is(err, ErrBitstream) {
		t.Errorf("Decoder stream: error %v, want one wrapping ErrBitstream", err)
	}
	if _, err := (&refDecoder{deblock: true}).decodeStream(stream); !errors.Is(err, ErrBitstream) {
		t.Errorf("refDecoder stream: error %v, want one wrapping ErrBitstream", err)
	}
}
