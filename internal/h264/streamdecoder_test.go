package h264

import (
	"bytes"
	"errors"
	"sync"
	"testing"

	"affectedge/internal/simd"
	"affectedge/internal/stream"
)

// testStream encodes the calibration sequence once per test binary.
var testStreamOnce struct {
	sync.Once
	data []byte
}

func calibrationStream(t testing.TB) []byte {
	testStreamOnce.Do(func() {
		src, err := GenerateVideo(CalibrationVideoConfig(16))
		if err != nil {
			panic(err)
		}
		enc, err := NewEncoder(CalibrationEncoderConfig())
		if err != nil {
			panic(err)
		}
		data, _, err := enc.EncodeSequence(src)
		if err != nil {
			panic(err)
		}
		testStreamOnce.data = data
	})
	return testStreamOnce.data
}

func streamFramesEqual(t *testing.T, want, got []*Frame, label string) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d streamed frames, want %d", label, len(got), len(want))
	}
	for i := range want {
		w, g := want[i], got[i]
		if w.Width != g.Width || w.Height != g.Height ||
			!bytes.Equal(w.Y, g.Y) || !bytes.Equal(w.Cb, g.Cb) || !bytes.Equal(w.Cr, g.Cr) {
			t.Fatalf("%s: frame %d differs from batch decode", label, i)
		}
	}
}

// streamDecode pushes data through a StreamDecoder in the given chunk
// sizes, draining the FIFO between feeds (the single-threaded drain-retry
// shape the fleet probe uses), and returns the decoded frames.
func streamDecode(t testing.TB, sd *StreamDecoder, data []byte, chunk int) []*Frame {
	t.Helper()
	var frames []*Frame
	drain := func() {
		for {
			f, ok, err := sd.Frames().TryPop()
			if err != nil || !ok {
				return
			}
			frames = append(frames, f)
		}
	}
	for at := 0; at < len(data); {
		end := at + chunk
		if end > len(data) {
			end = len(data)
		}
		n, err := sd.Feed(data[at:end])
		if errors.Is(err, stream.ErrBackpressure) {
			drain()
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		at += n
	}
	for {
		err := sd.Finish()
		if errors.Is(err, stream.ErrBackpressure) {
			drain()
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		break
	}
	drain()
	return frames
}

// TestStreamDecoderMatchesBatch requires the progressive decode of the
// calibration bitstream to be bit-identical to DecodeStream at every chunk
// size, with SIMD on and off, and the carry buffer bounded by the largest
// NAL unit plus one chunk.
func TestStreamDecoderMatchesBatch(t *testing.T) {
	data := calibrationStream(t)
	units, err := SplitStream(data)
	if err != nil {
		t.Fatal(err)
	}
	maxNAL := 0
	for _, u := range units {
		if s := u.SizeBytes() + len(startCode); s > maxNAL {
			maxNAL = s
		}
	}
	defer simd.SetEnabled(simd.Available())
	for _, on := range []bool{true, false} {
		simd.SetEnabled(on && simd.Available())
		batch := NewDecoder()
		want, err := batch.DecodeStream(data)
		if err != nil {
			t.Fatal(err)
		}
		for _, chunk := range []int{1, 3, 17, 1000, len(data)} {
			sd, err := NewStreamDecoder(NewDecoder(), 4)
			if err != nil {
				t.Fatal(err)
			}
			got := streamDecode(t, sd, data, chunk)
			streamFramesEqual(t, want, got, "stream decode")
			// The carry legitimately holds one complete unit plus the next
			// unit's start code before the copy-down trims it.
			if limit := maxNAL + len(startCode) + chunk; sd.PeakCarry() > limit {
				t.Fatalf("chunk %d: peak carry %d exceeds maxNAL+code+chunk = %d", chunk, sd.PeakCarry(), limit)
			}
		}
	}
}

// TestStreamDecoderReuse runs the same stream twice through one
// StreamDecoder via Reset, expecting identical output both passes.
func TestStreamDecoderReuse(t *testing.T) {
	data := calibrationStream(t)
	want, err := NewDecoder().DecodeStream(data)
	if err != nil {
		t.Fatal(err)
	}
	sd, err := NewStreamDecoder(NewDecoder(), 8)
	if err != nil {
		t.Fatal(err)
	}
	for pass := 0; pass < 2; pass++ {
		got := streamDecode(t, sd, data, 512)
		streamFramesEqual(t, want, got, "reuse pass")
		sd.Reset()
	}
}

// TestStreamDecoderSPSC runs the intended pipeline shape — one feeding
// goroutine, one consumer blocking on the FIFO — and checks the frames
// arrive intact and in order.
func TestStreamDecoderSPSC(t *testing.T) {
	data := calibrationStream(t)
	want, err := NewDecoder().DecodeStream(data)
	if err != nil {
		t.Fatal(err)
	}
	sd, err := NewStreamDecoder(NewDecoder(), 2)
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		for at := 0; at < len(data); {
			end := at + 64
			if end > len(data) {
				end = len(data)
			}
			n, err := sd.Feed(data[at:end])
			if err != nil && !errors.Is(err, stream.ErrBackpressure) {
				t.Error(err)
				sd.Close()
				return
			}
			at += n
		}
		for errors.Is(sd.Finish(), stream.ErrBackpressure) {
		}
	}()
	var got []*Frame
	for {
		f, err := sd.Frames().Pop()
		if err != nil {
			if !errors.Is(err, stream.ErrClosed) {
				t.Fatal(err)
			}
			break
		}
		got = append(got, f)
	}
	streamFramesEqual(t, want, got, "spsc")
}

// TestStreamDecoderErrors covers the failure and lifecycle paths.
func TestStreamDecoderErrors(t *testing.T) {
	if _, err := NewStreamDecoder(nil, 4); err == nil {
		t.Fatal("nil decoder accepted")
	}
	if _, err := NewStreamDecoder(NewDecoder(), 0); err == nil {
		t.Fatal("zero FIFO capacity accepted")
	}

	// All-garbage stream: same ErrBitstream as SplitStream, at Finish.
	sd, _ := NewStreamDecoder(NewDecoder(), 4)
	if _, err := sd.Feed([]byte{9, 9, 9, 9}); err != nil {
		t.Fatal(err)
	}
	if err := sd.Finish(); !errors.Is(err, ErrBitstream) {
		t.Fatalf("garbage Finish = %v, want ErrBitstream", err)
	}
	if _, err := sd.Feed([]byte{1}); !errors.Is(err, ErrBitstream) {
		t.Fatalf("Feed after fatal error = %v, want the sticky error", err)
	}

	// Empty stream: no frames, no error — as DecodeStream(nil).
	sd, _ = NewStreamDecoder(NewDecoder(), 4)
	if err := sd.Finish(); err != nil {
		t.Fatalf("empty Finish = %v", err)
	}
	if _, err := sd.Feed([]byte{0}); !errors.Is(err, stream.ErrClosed) {
		t.Fatalf("Feed after Finish = %v, want ErrClosed", err)
	}

	// forbidden_zero_bit mid-stream is fatal and closes the FIFO.
	sd, _ = NewStreamDecoder(NewDecoder(), 4)
	bad := []byte{0, 0, 1, 0x80, 7, 0, 0, 1, 0x80, 7}
	if _, err := sd.Feed(bad); !errors.Is(err, ErrBitstream) {
		t.Fatalf("forbidden bit = %v, want ErrBitstream", err)
	}
	if !sd.Frames().Closed() {
		t.Fatal("FIFO not closed after fatal error")
	}

	// Close drops pending work and is idempotent.
	sd, _ = NewStreamDecoder(NewDecoder(), 4)
	sd.Close()
	sd.Close()
	if _, err := sd.Feed([]byte{0}); !errors.Is(err, stream.ErrClosed) {
		t.Fatalf("Feed after Close = %v, want ErrClosed", err)
	}
}

// TestStreamDecoderBackpressure forces every frame through a capacity-1
// FIFO and checks nothing is lost, reordered, or consumed while refused.
func TestStreamDecoderBackpressure(t *testing.T) {
	data := calibrationStream(t)
	want, err := NewDecoder().DecodeStream(data)
	if err != nil {
		t.Fatal(err)
	}
	sd, err := NewStreamDecoder(NewDecoder(), 1)
	if err != nil {
		t.Fatal(err)
	}
	var got []*Frame
	at := 0
	for at < len(data) {
		end := at + 4096
		if end > len(data) {
			end = len(data)
		}
		n, err := sd.Feed(data[at:end])
		if errors.Is(err, stream.ErrBackpressure) {
			if n != 0 {
				t.Fatalf("refused Feed consumed %d bytes", n)
			}
			f, ok, perr := sd.Frames().TryPop()
			if perr != nil || !ok {
				t.Fatalf("backpressure with undrainable FIFO (%v, %v)", ok, perr)
			}
			got = append(got, f)
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		at += n
	}
	finishes := 0
	for {
		err := sd.Finish()
		if err == nil {
			break
		}
		if !errors.Is(err, stream.ErrBackpressure) {
			t.Fatal(err)
		}
		finishes++
		if f, ok, _ := sd.Frames().TryPop(); ok {
			got = append(got, f)
		}
	}
	for {
		f, ok, _ := sd.Frames().TryPop()
		if !ok {
			break
		}
		got = append(got, f)
	}
	streamFramesEqual(t, want, got, "backpressure")
	if finishes == 0 {
		t.Log("note: Finish never reported backpressure at capacity 1")
	}
}

// FuzzChunkSplitDiff mutates one byte of the calibration bitstream,
// truncates it, then decodes it progressively at fuzzer-chosen chunk
// splits: whenever the batch decoder accepts the stream the progressive
// result must be frame-for-frame identical, and batch failure must imply
// progressive failure (and vice versa), at both SIMD settings.
func FuzzChunkSplitDiff(f *testing.F) {
	f.Add(0, byte(0), 1<<20, []byte{64})
	f.Add(100, byte(0x80), 512, []byte{1, 3, 250})
	f.Add(3, byte(1), 40, []byte{1})
	f.Add(9999, byte(255), 4096, []byte{7, 255, 0, 2})
	f.Fuzz(func(t *testing.T, pos int, val byte, cut int, splits []byte) {
		base := calibrationStream(t)
		if cut < 0 {
			cut = 0
		}
		if cut > len(base) {
			cut = len(base)
		}
		data := append([]byte(nil), base[:cut]...)
		if len(data) > 0 && pos >= 0 {
			data[pos%len(data)] = val
		}
		defer simd.SetEnabled(simd.Available())
		for _, on := range []bool{true, false} {
			simd.SetEnabled(on && simd.Available())
			want, batchErr := NewDecoder().DecodeStream(data)
			sd, err := NewStreamDecoder(NewDecoder(), 3)
			if err != nil {
				t.Fatal(err)
			}
			var got []*Frame
			var streamErr error
			drain := func() {
				for {
					fr, ok, err := sd.Frames().TryPop()
					if err != nil || !ok {
						return
					}
					got = append(got, fr)
				}
			}
			at, si := 0, 0
			for at < len(data) && streamErr == nil {
				chunk := 1
				if len(splits) > 0 {
					if chunk = int(splits[si%len(splits)]); chunk == 0 {
						chunk = 1
					}
					si++
				}
				if at+chunk > len(data) {
					chunk = len(data) - at
				}
				n, err := sd.Feed(data[at : at+chunk])
				if errors.Is(err, stream.ErrBackpressure) {
					drain()
					continue
				}
				if err != nil {
					streamErr = err
					break
				}
				at += n
			}
			for streamErr == nil {
				err := sd.Finish()
				if errors.Is(err, stream.ErrBackpressure) {
					drain()
					continue
				}
				streamErr = err
				break
			}
			drain()
			if (batchErr == nil) != (streamErr == nil) {
				t.Fatalf("batch err = %v, progressive err = %v", batchErr, streamErr)
			}
			if batchErr == nil {
				streamFramesEqual(t, want, got, "fuzz")
			}
		}
	})
}

// BenchmarkStreamDecode measures progressive decode fed in 4 KiB chunks
// with pooled frames returned after each drain: steady state must be
// allocation-free with the carry bounded by one NAL unit plus one chunk.
func BenchmarkStreamDecode(b *testing.B) {
	data := calibrationStream(b)
	pool := NewFramePool()
	dec := NewDecoder()
	dec.SetPool(pool)
	sd, err := NewStreamDecoder(dec, 4)
	if err != nil {
		b.Fatal(err)
	}
	const chunk = 4096
	run := func() {
		for at := 0; at < len(data); {
			end := at + chunk
			if end > len(data) {
				end = len(data)
			}
			n, err := sd.Feed(data[at:end])
			if errors.Is(err, stream.ErrBackpressure) {
				for {
					f, ok, _ := sd.Frames().TryPop()
					if !ok {
						break
					}
					pool.Put(f)
				}
				continue
			}
			if err != nil {
				b.Fatal(err)
			}
			at += n
		}
		for {
			err := sd.Finish()
			if err == nil {
				break
			}
			if !errors.Is(err, stream.ErrBackpressure) {
				b.Fatal(err)
			}
			if f, ok, _ := sd.Frames().TryPop(); ok {
				pool.Put(f)
			}
		}
		for {
			f, ok, _ := sd.Frames().TryPop()
			if !ok {
				break
			}
			pool.Put(f)
		}
		sd.Reset()
	}
	run() // warm pools and carry capacity outside the timed region
	b.ReportAllocs()
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
	b.StopTimer()
	if sd.PeakCarry() > 1<<20 {
		b.Fatalf("peak carry %d unexpectedly large", sd.PeakCarry())
	}
}
