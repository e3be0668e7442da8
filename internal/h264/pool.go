package h264

import "sync"

// FramePool recycles Frame plane slabs. Decoding a stream allocates one
// Frame per slice plus concealment clones; at QCIF that is ~38 KB of plane
// data per frame that the garbage collector otherwise churns through. The
// pool hands frames back keyed by exact dimensions, so a decoder that is
// reset between streams (or a fleet shard decoding the same probe clip
// every tick) reaches a steady state of zero plane allocations.
//
// A frame from Get has zeroed chroma planes and a luma plane holding
// whatever its last user left there. Both users overwrite every luma
// sample before reading one: a decoded slice reconstructs every
// macroblock, a concealment frame copies the whole plane, and the
// encoder's reconstruction writes every block. The codec never writes
// Cb or Cr, so Put zeroes those and Get hands out the zero chroma a
// fresh frame has. A nil *FramePool is valid and degrades to plain
// NewFrame allocation, so pooling stays strictly opt-in.
type FramePool struct {
	mu   sync.Mutex
	w, h int
	free []*Frame
}

// NewFramePool returns an empty pool. The pool adopts the dimensions of
// the first frame it sees; frames of any other size bypass it.
func NewFramePool() *FramePool { return &FramePool{} }

// Get returns a w×h frame with zeroed chroma, reusing a pooled one when
// the dimensions match; a reused frame's luma is stale, a fresh one's is
// zero. Dimension validation is NewFrame's, so a pooled Get
// fails in exactly the cases an unpooled allocation would.
func (p *FramePool) Get(w, h int) (*Frame, error) {
	if p == nil {
		return NewFrame(w, h)
	}
	p.mu.Lock()
	if p.w == w && p.h == h && len(p.free) > 0 {
		f := p.free[len(p.free)-1]
		p.free = p.free[:len(p.free)-1]
		p.mu.Unlock()
		return f, nil
	}
	p.mu.Unlock()
	return NewFrame(w, h)
}

// Put zeroes f's chroma and returns it to the pool. Frames whose dimensions differ
// from the pool's current size are dropped (the pool re-keys itself when
// empty, so a dimension change costs one generation of frames, not a
// permanent mismatch). Nil pools and nil frames are no-ops.
func (p *FramePool) Put(f *Frame) {
	if p == nil || f == nil {
		return
	}
	for i := range f.Cb {
		f.Cb[i] = 0
	}
	for i := range f.Cr {
		f.Cr[i] = 0
	}
	p.mu.Lock()
	if len(p.free) == 0 {
		p.w, p.h = f.Width, f.Height
	}
	if p.w == f.Width && p.h == f.Height {
		p.free = append(p.free, f)
	}
	p.mu.Unlock()
}

// PutAll returns every frame in fs to the pool.
func (p *FramePool) PutAll(fs []*Frame) {
	for _, f := range fs {
		p.Put(f)
	}
}

// Size reports how many frames are currently pooled.
func (p *FramePool) Size() int {
	if p == nil {
		return 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.free)
}
