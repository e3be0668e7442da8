package wire

import (
	"encoding/hex"
	"errors"
	"math"
	"strings"
	"testing"
)

// sampleFrames returns one representative frame of every type, with
// payloads exercising sign, NaN bit patterns, and non-trivial data.
func sampleFrames() []Frame {
	return []Frame{
		{Type: Hello, Version: Version, Session: 0x0123456789abcdef, Dim: 24},
		{Type: ObserveBatch, Batch: []BatchObs{
			{Seq: 7, At: -1500000000, Vals: []float64{0, 1.5, -2.25, math.Inf(1), math.Float64frombits(0x7ff8000000000001)}},
		}},
		{Type: ObserveBatch, Batch: []BatchObs{{Seq: 8, At: 1 << 40, Vals: []float64{3.14159, math.Copysign(0, -1)}}}},
		{Type: SnapshotReq, Seq: 9},
		{Type: Ack, Seq: 10, Data: []byte{0xde, 0xad, 0xbe, 0xef}},
		{Type: Ack, Seq: 11},
		{Type: Err, Seq: 12, Code: CodeBackpressure, Msg: "shard queue full"},
		{Type: ObserveBatch, Batch: []BatchObs{
			{Seq: 13, At: 1, Vals: []float64{1.25, -2.5}},
			{Seq: 14, At: 2, Vals: nil},
			{Seq: 15, At: -3, Vals: []float64{math.Float64frombits(0x7ff8000000000001)}},
		}},
		{Type: AckBatch, Seq: 13, Count: 3, Bitmap: []byte{0b101}},
		{Type: AckBatch, Seq: 20, Count: 9, Bitmap: []byte{0x00, 0x01}},
	}
}

// cloneFrame deep-copies the slice-backed fields of a decoded frame, so the
// copy survives the source Frame being reused for the next decode. Batch
// items need their own Vals storage: decode sub-slices them out of one flat
// backing that the next decode overwrites.
func cloneFrame(fr *Frame) Frame {
	cp := *fr
	cp.vals = nil
	cp.Data = append([]byte(nil), fr.Data...)
	cp.Bitmap = append([]byte(nil), fr.Bitmap...)
	if fr.Batch != nil {
		cp.Batch = make([]BatchObs, len(fr.Batch))
		for i := range fr.Batch {
			cp.Batch[i] = fr.Batch[i]
			cp.Batch[i].Vals = append([]float64(nil), fr.Batch[i].Vals...)
		}
	}
	return cp
}

// frameEq compares the live fields for f's type, with NaNs equal by bits.
func frameEq(a, b *Frame) bool {
	if a.Type != b.Type {
		return false
	}
	valsEq := func(x, y []float64) bool {
		if len(x) != len(y) {
			return false
		}
		for i := range x {
			if math.Float64bits(x[i]) != math.Float64bits(y[i]) {
				return false
			}
		}
		return true
	}
	switch a.Type {
	case Hello:
		return a.Version == b.Version && a.Session == b.Session && a.Dim == b.Dim
	case SnapshotReq:
		return a.Seq == b.Seq
	case Ack:
		return a.Seq == b.Seq && string(a.Data) == string(b.Data)
	case Err:
		return a.Seq == b.Seq && a.Code == b.Code && a.Msg == b.Msg
	case ObserveBatch:
		if len(a.Batch) != len(b.Batch) {
			return false
		}
		for i := range a.Batch {
			x, y := &a.Batch[i], &b.Batch[i]
			if x.Seq != y.Seq || x.At != y.At || !valsEq(x.Vals, y.Vals) {
				return false
			}
		}
		return true
	case AckBatch:
		return a.Seq == b.Seq && a.Count == b.Count && string(a.Bitmap) == string(b.Bitmap)
	}
	return false
}

func TestRoundTrip(t *testing.T) {
	for _, f := range sampleFrames() {
		buf, err := Append(nil, &f)
		if err != nil {
			t.Fatalf("%s: encode: %v", f.Type, err)
		}
		var got Frame
		if err := DecodeBody(&got, buf[lenSize:]); err != nil {
			t.Fatalf("%s: decode: %v", f.Type, err)
		}
		if !frameEq(&f, &got) {
			t.Fatalf("%s: round trip mismatch:\n in %+v\nout %+v", f.Type, f, got)
		}
	}
}

// TestDecodeReuse round-trips twice through the same Frame: the second
// decode must not see residue from the first (slices resized, fields
// overwritten).
func TestDecodeReuse(t *testing.T) {
	big := Frame{Type: ObserveBatch, Batch: []BatchObs{
		{Seq: 1, At: 2, Vals: []float64{1, 2, 3, 4, 5, 6}},
		{Seq: 2, At: 3, Vals: []float64{7, 8}},
	}}
	small := Frame{Type: ObserveBatch, Batch: []BatchObs{{Seq: 3, At: 4, Vals: []float64{9}}}}
	bufBig, _ := Append(nil, &big)
	bufSmall, _ := Append(nil, &small)
	var f Frame
	if err := DecodeBody(&f, bufBig[lenSize:]); err != nil {
		t.Fatal(err)
	}
	if err := DecodeBody(&f, bufSmall[lenSize:]); err != nil {
		t.Fatal(err)
	}
	if !frameEq(&small, &f) {
		t.Fatalf("reused decode mismatch: %+v vs %+v", small, f)
	}
}

func TestEncodeBounds(t *testing.T) {
	cases := []Frame{
		{Type: Ack, Data: make([]byte, MaxData+1)},
		{Type: Err, Msg: strings.Repeat("x", MaxMsg+1)},
		{Type: ObserveBatch, Batch: make([]BatchObs, MaxBatch+1)},
		{Type: ObserveBatch, Batch: []BatchObs{{Vals: make([]float64, MaxVals+1)}}},
		// Items individually legal but collectively past MaxFrame.
		{Type: ObserveBatch, Batch: []BatchObs{
			{Vals: make([]float64, MaxVals)}, {Vals: make([]float64, MaxVals)}, {Vals: make([]float64, MaxVals)},
		}},
		{Type: AckBatch, Count: MaxBatch + 1, Bitmap: make([]byte, BitmapLen(MaxBatch+1))},
	}
	for _, f := range cases {
		if _, err := Append(nil, &f); !errors.Is(err, ErrFrameTooBig) {
			t.Errorf("%s: oversized encode: got %v, want ErrFrameTooBig", f.Type, err)
		}
	}
	// Structural batch encode errors: empty batches and bitmap shape.
	for _, tc := range []struct {
		f    Frame
		want error
	}{
		{Frame{Type: ObserveBatch}, ErrEmptyBatch},
		{Frame{Type: AckBatch}, ErrEmptyBatch},
		{Frame{Type: AckBatch, Count: 3, Bitmap: []byte{0, 0}}, ErrBadBitmap},
		{Frame{Type: AckBatch, Count: 3, Bitmap: []byte{0b1000}}, ErrBadBitmap},
	} {
		if _, err := Append(nil, &tc.f); !errors.Is(err, tc.want) {
			t.Errorf("%s: got %v, want %v", tc.f.Type, err, tc.want)
		}
	}
	if _, err := Append(nil, &Frame{Type: Type(0x7f)}); !errors.Is(err, ErrBadType) {
		t.Errorf("unknown type encode: got %v, want ErrBadType", err)
	}
	// The largest legal frames must encode and round-trip.
	for _, f := range []Frame{
		{Type: ObserveBatch, Batch: []BatchObs{{Vals: make([]float64, MaxVals)}}},
		{Type: Ack, Data: make([]byte, MaxData)},
	} {
		buf, err := Append(nil, &f)
		if err != nil {
			t.Fatalf("%s at bound: %v", f.Type, err)
		}
		if len(buf) > MaxFrame+lenSize {
			t.Fatalf("%s at bound: %d bytes on the wire, cap %d", f.Type, len(buf), MaxFrame+lenSize)
		}
		var got Frame
		if err := DecodeBody(&got, buf[lenSize:]); err != nil {
			t.Fatalf("%s at bound: decode: %v", f.Type, err)
		}
	}
}

func TestDecodeErrors(t *testing.T) {
	enc := func(f Frame) []byte {
		buf, err := Append(nil, &f)
		if err != nil {
			t.Fatal(err)
		}
		return buf[lenSize:]
	}
	hello := enc(Frame{Type: Hello, Version: Version, Session: 1, Dim: 8})
	badMagic := append([]byte(nil), hello...)
	badMagic[1] ^= 0xff
	batch := enc(Frame{Type: ObserveBatch, Batch: []BatchObs{
		{Seq: 1, At: 2, Vals: []float64{1}},
		{Seq: 2, At: 3, Vals: []float64{2}},
	}})
	// A batch whose last item's vcount points past the body.
	batchLies := append([]byte(nil), batch...)
	batchLies[len(batchLies)-8-2] = 9
	ackBatch := enc(Frame{Type: AckBatch, Seq: 1, Count: 3, Bitmap: []byte{0b010}})
	ackBatchPad := append([]byte(nil), ackBatch...)
	ackBatchPad[len(ackBatchPad)-1] |= 0b1000 // bit 3 of a 3-item batch
	emptyBatch := []byte{byte(ObserveBatch), 0, 0}
	emptyAckBatch := []byte{byte(AckBatch), 1, 0, 0, 0, 0, 0, 0, 0, 0, 0}
	// Version-1 OBSERVE and OBSERVE_CHUNK bodies, byte for byte: their
	// type bytes are unassigned since version 2.
	retiredObserve, _ := hex.DecodeString("02020000000000000000ca9a3b000000000200000000000000f83f000000000000d0bf")
	retiredObserveChunk, _ := hex.DecodeString("0303000000000000000094357700000000010100000000000000e03f")

	cases := []struct {
		name string
		body []byte
		want error
	}{
		{"empty", nil, ErrTruncated},
		{"unknown type", []byte{0x7f, 0, 0}, ErrBadType},
		{"bad magic", badMagic, ErrBadMagic},
		{"short hello", hello[:10], ErrTruncated},
		{"long hello", append(append([]byte(nil), hello...), 0), ErrTrailing},
		{"retired OBSERVE", retiredObserve, ErrBadType},
		{"retired OBSERVE_CHUNK", retiredObserveChunk, ErrBadType},
		{"oversized body", make([]byte, MaxFrame+1), ErrFrameTooBig},
		{"short batch head", batch[:2], ErrTruncated},
		{"short batch item", batch[:12], ErrTruncated},
		{"batch vcount lies", batchLies, ErrTruncated},
		{"batch trailing", append(append([]byte(nil), batch...), 0), ErrTrailing},
		{"empty batch", emptyBatch, ErrEmptyBatch},
		{"short ack batch", ackBatch[:8], ErrTruncated},
		{"ack batch bitmap short", ackBatch[:len(ackBatch)-1], ErrTrailing},
		{"ack batch bitmap long", append(append([]byte(nil), ackBatch...), 0), ErrTrailing},
		{"ack batch padding bits", ackBatchPad, ErrBadBitmap},
		{"empty ack batch", emptyAckBatch, ErrEmptyBatch},
	}
	for _, tc := range cases {
		var f Frame
		if err := DecodeBody(&f, tc.body); !errors.Is(err, tc.want) {
			t.Errorf("%s: got %v, want %v", tc.name, err, tc.want)
		}
	}
}

// TestCheckHello pins the typed wrong-version error: a Hello from another
// protocol generation decodes structurally but fails CheckHello with
// *VersionError carrying both versions — mirroring internal/nn's snapshot
// version contract.
func TestCheckHello(t *testing.T) {
	good := Frame{Type: Hello, Version: Version, Session: 3, Dim: 24}
	if err := CheckHello(&good); err != nil {
		t.Fatalf("current version rejected: %v", err)
	}
	buf, err := Append(nil, &Frame{Type: Hello, Version: Version + 1, Session: 3, Dim: 24})
	if err != nil {
		t.Fatal(err)
	}
	var f Frame
	if err := DecodeBody(&f, buf[lenSize:]); err != nil {
		t.Fatalf("future-version hello must decode structurally: %v", err)
	}
	err = CheckHello(&f)
	var ve *VersionError
	if !errors.As(err, &ve) {
		t.Fatalf("want *VersionError, got %T: %v", err, err)
	}
	if ve.Got != Version+1 || ve.Want != Version {
		t.Fatalf("VersionError = %+v, want Got=%d Want=%d", ve, Version+1, Version)
	}
	if err := CheckHello(&Frame{Type: ObserveBatch}); err == nil {
		t.Fatal("non-hello first frame accepted")
	}
	// A version-1 peer's Hello still decodes but is refused by version.
	v1 := goldenFrames[0].frame
	if err := CheckHello(&v1); !errors.As(err, &ve) || ve.Got != 1 || ve.Want != 2 {
		t.Fatalf("version-1 hello: got %v, want *VersionError{Got: 1, Want: 2}", err)
	}
}

func TestSplitterWholeStream(t *testing.T) {
	frames := sampleFrames()
	var stream []byte
	for i := range frames {
		var err error
		stream, err = Append(stream, &frames[i])
		if err != nil {
			t.Fatal(err)
		}
	}
	// Feed byte by byte: the adversarial fragmentation.
	var sp Splitter
	var got []Frame
	var f Frame
	for _, b := range stream {
		if err := sp.Feed([]byte{b}); err != nil {
			t.Fatal(err)
		}
		for {
			ok, err := sp.Next(&f)
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				break
			}
			got = append(got, cloneFrame(&f))
		}
	}
	if len(got) != len(frames) {
		t.Fatalf("split %d frames, want %d", len(got), len(frames))
	}
	for i := range frames {
		if !frameEq(&frames[i], &got[i]) {
			t.Fatalf("frame %d mismatch: %+v vs %+v", i, frames[i], got[i])
		}
	}
	if sp.Pending() != 0 {
		t.Fatalf("%d bytes pending after clean stream", sp.Pending())
	}
	if sp.PeakCarry() > MaxFrame+lenSize+1 {
		t.Fatalf("peak carry %d exceeds bound", sp.PeakCarry())
	}
}

func TestSplitterStickyErrors(t *testing.T) {
	// Oversized declared length fails at the prefix, before buffering.
	var sp Splitter
	if err := sp.Feed([]byte{0xff, 0xff, 0xff, 0xff}); !errors.Is(err, ErrFrameTooBig) {
		t.Fatalf("oversized prefix: got %v", err)
	}
	if err := sp.Feed([]byte{1}); !errors.Is(err, ErrFrameTooBig) {
		t.Fatalf("sticky error not returned on Feed: got %v", err)
	}
	var f Frame
	if _, err := sp.Next(&f); !errors.Is(err, ErrFrameTooBig) {
		t.Fatalf("sticky error not returned on Next: got %v", err)
	}

	// Zero-length frame is equally fatal.
	sp.Reset()
	if err := sp.Feed([]byte{0, 0, 0, 0}); !errors.Is(err, ErrTruncated) {
		t.Fatalf("zero-length frame: got %v", err)
	}

	// A bad body (good prefix) poisons at Next, after earlier frames
	// were delivered.
	sp.Reset()
	good, err := Append(nil, &Frame{Type: SnapshotReq, Seq: 1})
	if err != nil {
		t.Fatal(err)
	}
	bad := append(append([]byte(nil), good...), 3, 0, 0, 0, 0x7f, 1, 2)
	if err := sp.Feed(bad); err != nil {
		t.Fatal(err)
	}
	if ok, err := sp.Next(&f); !ok || err != nil {
		t.Fatalf("good frame before poison: ok=%v err=%v", ok, err)
	}
	if _, err := sp.Next(&f); !errors.Is(err, ErrBadType) {
		t.Fatalf("poisoned Next: got %v", err)
	}

	// Reset recovers the splitter for a new connection.
	sp.Reset()
	if err := sp.Feed(good); err != nil {
		t.Fatal(err)
	}
	if ok, err := sp.Next(&f); !ok || err != nil {
		t.Fatalf("post-Reset decode: ok=%v err=%v", ok, err)
	}
}
