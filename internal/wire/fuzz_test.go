package wire

import (
	"encoding/binary"
	"math"
	"testing"
)

// FuzzWireDecode throws arbitrary bytes at DecodeBody: it must never
// panic, never allocate past the MaxFrame bound, and — when it accepts a
// body — re-encoding the decoded frame must reproduce the input bytes
// exactly (decode is the inverse of encode on the accepted set).
func FuzzWireDecode(f *testing.F) {
	for _, g := range goldenFrames {
		buf, err := Append(nil, &g.frame)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(buf[lenSize:])
	}
	f.Add([]byte{})
	for _, n := range []int{1, 3, 64} {
		fr := benchBatch(n)
		buf, err := Append(nil, &fr)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(buf[lenSize:])
	}
	// A one-item batch whose vcount claims one value more than it carries.
	one := benchBatch(1)
	buf, err := Append(nil, &one)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(buf[lenSize : len(buf)-8])
	// Value runs of NaN payloads, ±Inf, ±0 and subnormals must survive the
	// bulk codec bit for bit, one item and split over several.
	sv := specialVals()
	for _, items := range [][]BatchObs{
		{{Seq: 1, At: 2, Vals: sv}},
		{{Seq: 3, Vals: sv[:5]}, {Seq: 4, At: -1, Vals: sv[5:]}, {Seq: 5}},
	} {
		buf, err := Append(nil, &Frame{Type: ObserveBatch, Batch: items})
		if err != nil {
			f.Fatal(err)
		}
		f.Add(buf[lenSize:])
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var fr Frame
		if err := DecodeBody(&fr, body); err != nil {
			return
		}
		if len(fr.Data) > MaxData || len(fr.Msg) > MaxMsg {
			t.Fatalf("decode exceeded payload bounds: data=%d msg=%d", len(fr.Data), len(fr.Msg))
		}
		for i := range fr.Batch {
			if len(fr.Batch[i].Vals) > MaxVals {
				t.Fatalf("decode exceeded item bounds: item %d has %d values", i, len(fr.Batch[i].Vals))
			}
		}
		if len(fr.Batch) > MaxBatch || fr.Count > MaxBatch {
			t.Fatalf("decode exceeded batch bounds: items=%d count=%d", len(fr.Batch), fr.Count)
		}
		out, err := Append(nil, &fr)
		if err != nil {
			t.Fatalf("accepted body failed to re-encode: %v", err)
		}
		if body2 := out[lenSize:]; string(body2) != string(body) {
			t.Fatalf("decode/encode not inverse:\n in  % x\n out % x", body, body2)
		}
		if got := int(binary.LittleEndian.Uint32(out)); got != len(body) {
			t.Fatalf("re-encoded length prefix %d, body %d", got, len(body))
		}
	})
}

// FuzzFrameSplit pins the framing invariant: decoding a byte stream
// through the Splitter at fuzzer-chosen TCP read splits yields exactly the
// frames (and the terminal error class) of a whole-buffer feed, and the
// carry never grows past one frame plus one chunk. The stream is seeded
// with valid frame sequences and then fuzz-mutated, so both the clean and
// the poisoned paths are exercised.
func FuzzFrameSplit(f *testing.F) {
	var stream []byte
	for _, g := range goldenFrames {
		var err error
		stream, err = Append(stream, &g.frame)
		if err != nil {
			f.Fatal(err)
		}
	}
	f.Add(stream, uint16(1))
	f.Add(stream, uint16(7))
	f.Add(append(stream[:len(stream)-3:len(stream)-3], 0xff, 0xff, 0xff), uint16(3))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 1, 2, 3}, uint16(2))
	f.Fuzz(func(t *testing.T, data []byte, splitSeed uint16) {
		if len(data) > 1<<16 {
			return
		}
		collect := func(sp *Splitter, feed func(*Splitter) error) (frames []Frame, terr error) {
			var fr Frame
			if err := feed(sp); err != nil {
				return frames, err
			}
			for {
				ok, err := sp.Next(&fr)
				if err != nil {
					return frames, err
				}
				if !ok {
					return frames, nil
				}
				frames = append(frames, cloneFrame(&fr))
			}
		}

		// Whole-buffer reference.
		var whole Splitter
		wantFrames, wantErr := collect(&whole, func(sp *Splitter) error { return sp.Feed(data) })

		// Chunked: split points derived from the seed, interleaving Feed
		// and drain exactly like a connection read loop.
		var chunked Splitter
		var gotFrames []Frame
		var gotErr error
		rng := uint32(splitSeed) | 1
		maxChunk := 1 + int(splitSeed%97)
		for off := 0; off < len(data) && gotErr == nil; {
			rng = rng*1664525 + 1013904223
			n := 1 + int(rng%uint32(maxChunk))
			if off+n > len(data) {
				n = len(data) - off
			}
			var frames []Frame
			frames, gotErr = collect(&chunked, func(sp *Splitter) error { return sp.Feed(data[off : off+n]) })
			gotFrames = append(gotFrames, frames...)
			off += n
		}

		if (wantErr == nil) != (gotErr == nil) {
			t.Fatalf("error divergence: whole=%v chunked=%v", wantErr, gotErr)
		}
		if wantErr != nil && gotErr != nil && wantErr.Error() != gotErr.Error() {
			t.Fatalf("error text divergence:\nwhole   %v\nchunked %v", wantErr, gotErr)
		}
		if len(gotFrames) != len(wantFrames) {
			t.Fatalf("chunked decoded %d frames, whole %d", len(gotFrames), len(wantFrames))
		}
		for i := range wantFrames {
			if !frameEq(&wantFrames[i], &gotFrames[i]) {
				t.Fatalf("frame %d diverges:\nwhole   %+v\nchunked %+v", i, wantFrames[i], gotFrames[i])
			}
		}
		if bound := MaxFrame + lenSize + maxChunk; chunked.PeakCarry() > bound {
			t.Fatalf("chunked carry peaked at %d, bound %d", chunked.PeakCarry(), bound)
		}
		_ = math.Float64bits // anchor math for future val-payload seeds
	})
}
