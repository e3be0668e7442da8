package h264

import (
	"errors"
	"math/rand"
	"testing"
)

// The decoder must reject corrupted input with an error — never panic,
// never hang — because the Input Selector operates on untrusted streams.

func robustStream(t *testing.T) []byte {
	t.Helper()
	cfg := DefaultVideoConfig(6)
	cfg.Width, cfg.Height = 48, 48
	src, err := GenerateVideo(cfg)
	if err != nil {
		t.Fatal(err)
	}
	enc, err := NewEncoder(EncoderConfig{
		Width: 48, Height: 48, QP: 30, IntraPeriod: 3, BFrames: 1, SearchWindow: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	stream, _, err := enc.EncodeSequence(src)
	if err != nil {
		t.Fatal(err)
	}
	return stream
}

// decodeSafely runs the decoder, converting panics into test failures.
func decodeSafely(t *testing.T, stream []byte) (ok bool) {
	t.Helper()
	defer func() {
		if r := recover(); r != nil {
			t.Errorf("decoder panicked: %v", r)
			ok = false
		}
	}()
	_, err := NewDecoder().DecodeStream(stream)
	return err == nil
}

func TestDecodeTruncatedStreams(t *testing.T) {
	stream := robustStream(t)
	for _, frac := range []float64{0.1, 0.3, 0.5, 0.7, 0.9, 0.99} {
		cut := stream[:int(float64(len(stream))*frac)]
		decodeSafely(t, cut) // error is fine, panic is not
	}
}

func TestDecodeBitFlippedStreams(t *testing.T) {
	stream := robustStream(t)
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		corrupt := make([]byte, len(stream))
		copy(corrupt, stream)
		// Flip 1-4 random bits.
		for k := 0; k <= rng.Intn(4); k++ {
			pos := rng.Intn(len(corrupt))
			corrupt[pos] ^= 1 << uint(rng.Intn(8))
		}
		decodeSafely(t, corrupt)
	}
}

func TestDecodeGarbage(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 20; trial++ {
		garbage := make([]byte, 64+rng.Intn(512))
		for i := range garbage {
			garbage[i] = byte(rng.Intn(256))
		}
		decodeSafely(t, garbage)
	}
	// Valid framing, garbage payloads.
	for trial := 0; trial < 20; trial++ {
		payload := make([]byte, 16+rng.Intn(64))
		for i := range payload {
			payload[i] = byte(rng.Intn(256))
		}
		payload[len(payload)-1] |= 0x80
		stream, err := MarshalStream([]NAL{
			{Type: NALSPS, RefIDC: 3, Payload: payload},
			{Type: NALSliceIDR, RefIDC: 3, Payload: payload},
		})
		if err != nil {
			t.Fatal(err)
		}
		decodeSafely(t, stream)
	}
	// Framing errors are typed: no start code at all, and a forbidden_zero_bit
	// mid-stream, both fail with ErrBitstream; an empty stream is no frames
	// and no error.
	for _, bad := range [][]byte{{9, 9, 9, 9}, {0, 0, 1, 0x80, 7, 0, 0, 1, 0x80, 7}} {
		if _, err := NewDecoder().DecodeStream(bad); !errors.Is(err, ErrBitstream) {
			t.Errorf("DecodeStream(% x) = %v, want ErrBitstream", bad, err)
		}
	}
	if frames, err := NewDecoder().DecodeStream(nil); err != nil || len(frames) != 0 {
		t.Errorf("DecodeStream(nil) = %d frames, %v; want none, nil", len(frames), err)
	}
}

func TestPipelineOnTruncatedStream(t *testing.T) {
	stream := robustStream(t)
	cut := stream[:len(stream)/2]
	defer func() {
		if r := recover(); r != nil {
			t.Errorf("pipeline panicked: %v", r)
		}
	}()
	// Either outcome (partial frames or an error) is acceptable.
	if res, err := DecodePipeline(cut, ModeCombined); err == nil && res == nil {
		t.Error("nil result without error")
	}
}

func TestRateDistortionSweep(t *testing.T) {
	cfg := DefaultVideoConfig(8)
	cfg.Width, cfg.Height = 64, 48
	src, err := GenerateVideo(cfg)
	if err != nil {
		t.Fatal(err)
	}
	base := EncoderConfig{Width: 64, Height: 48, QP: 30, IntraPeriod: 4, BFrames: 1, SearchWindow: 2}
	points, err := RateDistortionSweep(src, base, []int{20, 30, 40}, DefaultEnergyModel(), 24)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 3 {
		t.Fatalf("%d points", len(points))
	}
	// Monotone: higher QP -> lower rate and lower (or equal) PSNR.
	for i := 1; i < len(points); i++ {
		if points[i].BitsPerSec >= points[i-1].BitsPerSec {
			t.Errorf("rate not decreasing: QP%d %.0f >= QP%d %.0f",
				points[i].QP, points[i].BitsPerSec, points[i-1].QP, points[i-1].BitsPerSec)
		}
		if points[i].PSNR > points[i-1].PSNR+0.5 {
			t.Errorf("PSNR increasing with QP: %f > %f", points[i].PSNR, points[i-1].PSNR)
		}
	}
	// More small (deletable) units at higher QP.
	if points[2].SmallUnits < points[0].SmallUnits {
		t.Errorf("QP40 has fewer small units (%d) than QP20 (%d)",
			points[2].SmallUnits, points[0].SmallUnits)
	}
	if _, err := RateDistortionSweep(nil, base, []int{30}, DefaultEnergyModel(), 24); err == nil {
		t.Error("empty source accepted")
	}
	if _, err := RateDistortionSweep(src, base, nil, DefaultEnergyModel(), 24); err == nil {
		t.Error("empty QP list accepted")
	}
}
