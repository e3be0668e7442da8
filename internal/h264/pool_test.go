package h264

import (
	"sync"
	"testing"
)

func TestFramePoolReuseAndZeroing(t *testing.T) {
	p := NewFramePool()
	f, err := p.Get(32, 32)
	if err != nil {
		t.Fatal(err)
	}
	// Dirty every plane, release, and require the recycled frame's chroma
	// to be zeroed. Its luma may be stale: every user of a pooled frame
	// overwrites the whole luma plane (TestPooledDecodeAfterOtherStream).
	for i := range f.Y {
		f.Y[i] = 0xAA
	}
	for i := range f.Cb {
		f.Cb[i] = 0xBB
	}
	for i := range f.Cr {
		f.Cr[i] = 0xCC
	}
	p.Put(f)
	if p.Size() != 1 {
		t.Fatalf("pool size %d after Put", p.Size())
	}
	g, err := p.Get(32, 32)
	if err != nil {
		t.Fatal(err)
	}
	if g != f {
		t.Fatal("pool did not reuse the released frame")
	}
	if len(g.Y) != 32*32 {
		t.Fatalf("recycled luma has %d samples, want %d", len(g.Y), 32*32)
	}
	for i, v := range g.Cb {
		if v != 0 {
			t.Fatalf("Cb[%d] = %#x, want 0", i, v)
		}
	}
	for i, v := range g.Cr {
		if v != 0 {
			t.Fatalf("Cr[%d] = %#x, want 0", i, v)
		}
	}
}

func TestFramePoolDimensionMismatch(t *testing.T) {
	p := NewFramePool()
	f, err := p.Get(32, 32)
	if err != nil {
		t.Fatal(err)
	}
	p.Put(f)
	// A different size must fall back to a fresh allocation, leaving the
	// pooled 32x32 frame untouched.
	g, err := p.Get(64, 48)
	if err != nil {
		t.Fatal(err)
	}
	if g == f {
		t.Fatal("pool returned a frame of the wrong size")
	}
	if g.Width != 64 || g.Height != 48 {
		t.Fatalf("got %dx%d, want 64x48", g.Width, g.Height)
	}
	if p.Size() != 1 {
		t.Fatalf("pool size %d, want 1", p.Size())
	}
	// Releasing the mismatched frame while 32x32 frames are pooled drops it.
	p.Put(g)
	if p.Size() != 1 {
		t.Fatalf("pool size %d after mismatched Put, want 1", p.Size())
	}
	// Once drained, the pool re-keys to the next released size.
	h, err := p.Get(32, 32)
	if err != nil {
		t.Fatal(err)
	}
	if h != f {
		t.Fatal("expected the pooled 32x32 frame back")
	}
	big, err := NewFrame(64, 48)
	if err != nil {
		t.Fatal(err)
	}
	p.Put(big)
	got, err := p.Get(64, 48)
	if err != nil {
		t.Fatal(err)
	}
	if got != big {
		t.Fatal("pool did not re-key to the new dimensions")
	}
	// Invalid dimensions surface NewFrame's validation, pooled or not.
	if _, err := p.Get(33, 32); err == nil {
		t.Fatal("expected error for non-multiple-of-16 width")
	}
}

func TestFramePoolNilSafe(t *testing.T) {
	var p *FramePool
	f, err := p.Get(32, 32)
	if err != nil || f == nil {
		t.Fatalf("nil pool Get = %v, %v", f, err)
	}
	p.Put(f)   // must not panic
	p.Put(nil) // must not panic
	p.PutAll(nil)
	if p.Size() != 0 {
		t.Fatal("nil pool has a size")
	}
}

// TestFramePoolRaceStress hammers one pool from many goroutines under the
// race detector: concurrent Get/Put with mixed dimensions must stay safe
// and every recycled frame must come back with zeroed chroma.
func TestFramePoolRaceStress(t *testing.T) {
	p := NewFramePool()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			w, h := 32, 32
			if g%3 == 0 {
				w, h = 64, 48
			}
			for i := 0; i < 200; i++ {
				f, err := p.Get(w, h)
				if err != nil {
					t.Error(err)
					return
				}
				for j := 0; j < len(f.Cb); j += 17 {
					if f.Cb[j] != 0 || f.Cr[j] != 0 {
						t.Errorf("goroutine %d: recycled frame's chroma not zeroed", g)
						return
					}
					f.Cb[j], f.Cr[j] = byte(g+1), byte(g+2)
				}
				for j := 0; j < len(f.Y); j += 17 {
					f.Y[j] = byte(g + 1)
				}
				p.Put(f)
			}
		}(g)
	}
	wg.Wait()
}

// TestDecodeStreamPooledMatchesUnpooled pins the pool's bit-exactness at
// the codec level: a pooled decoder must produce frames identical to an
// unpooled one.
func TestDecodeStreamPooledMatchesUnpooled(t *testing.T) {
	stream, err := encodeTinyStream()
	if err != nil {
		t.Fatal(err)
	}
	plain := NewDecoder()
	want, err := plain.DecodeStream(stream)
	if err != nil {
		t.Fatal(err)
	}
	pool := NewFramePool()
	for round := 0; round < 3; round++ {
		dec := NewDecoder()
		dec.SetPool(pool)
		got, err := dec.DecodeStream(stream)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("round %d: %d frames, want %d", round, len(got), len(want))
		}
		for i := range got {
			if !framesEqual(got[i], want[i]) {
				t.Fatalf("round %d: frame %d differs from unpooled decode", round, i)
			}
		}
		pool.PutAll(got)
	}
}

// TestPooledDecodeAfterOtherStream pins the pool's narrowed contract
// (stale luma on Get) at the codec level: in every operating mode, a
// pooled decoder that decoded one stream and returned its frames decodes
// a second stream, of another clip, exactly as an unpooled decoder does.
func TestPooledDecodeAfterOtherStream(t *testing.T) {
	a, total := probeClip(t, 6)
	src, err := GenerateVideo(VideoConfig{Width: 176, Height: 144, Frames: total, PanSpeed: 2, Detail: 0.6, Seed: 19})
	if err != nil {
		t.Fatal(err)
	}
	enc, err := NewEncoder(EncoderConfig{Width: 176, Height: 144, QP: 26, IntraPeriod: 4, BFrames: 1, SearchWindow: 3})
	if err != nil {
		t.Fatal(err)
	}
	_, units, err := enc.EncodeSequence(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range Modes() {
		kept, _ := ApplySelector(units, mode.Selector())
		b, err := MarshalStream(kept)
		if err != nil {
			t.Fatal(err)
		}
		want, err := probeDecode(NewDecoder(), mode, b, total, nil)
		if err != nil {
			t.Fatal(err)
		}
		dec := NewDecoder()
		pool := NewFramePool()
		dec.SetPool(pool)
		out, err := probeDecode(dec, mode, a[mode], total, nil)
		if err != nil {
			t.Fatal(err)
		}
		pool.PutAll(out)
		got, err := probeDecode(dec, mode, b, total, out[:0])
		if err != nil {
			t.Fatal(err)
		}
		if pool.Size() != 0 {
			t.Fatalf("%s: %d frames left in the pool; the decode did not reuse them all", mode, pool.Size())
		}
		if len(got) != len(want) {
			t.Fatalf("%s: %d frames, unpooled %d", mode, len(got), len(want))
		}
		for i := range got {
			if !framesEqual(got[i], want[i]) {
				t.Fatalf("%s: frame %d differs from the unpooled decode", mode, i)
			}
		}
	}
}

func framesEqual(a, b *Frame) bool {
	if a.Width != b.Width || a.Height != b.Height {
		return false
	}
	for i := range a.Y {
		if a.Y[i] != b.Y[i] {
			return false
		}
	}
	for i := range a.Cb {
		if a.Cb[i] != b.Cb[i] {
			return false
		}
	}
	for i := range a.Cr {
		if a.Cr[i] != b.Cr[i] {
			return false
		}
	}
	return true
}
