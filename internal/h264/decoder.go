package h264

import (
	"fmt"
	"math/bits"
)

// Activity is the decoder's per-run activity accounting; the power model
// converts it to energy.
type Activity struct {
	HeaderBits   int // slice/MB syntax bits parsed
	ResidualBits int // CAVLC residual bits parsed
	BlocksIQIT   int // 4x4 blocks through inverse quant + transform
	IntraBlocks  int // 4x4 intra predictions
	InterBlocks  int // 4x4 motion-compensated predictions
	SkipMBs      int
	CodedMBs     int
	DF           filterStats
	BufferBytes  int // bytes moved through pre-store + circular buffers
	FramesOut    int
	Concealed    int // frames repeated due to deleted/missing NAL units
}

// Add accumulates another activity record.
func (a *Activity) Add(b Activity) {
	a.HeaderBits += b.HeaderBits
	a.ResidualBits += b.ResidualBits
	a.BlocksIQIT += b.BlocksIQIT
	a.IntraBlocks += b.IntraBlocks
	a.InterBlocks += b.InterBlocks
	a.SkipMBs += b.SkipMBs
	a.CodedMBs += b.CodedMBs
	a.DF.edgesConsidered += b.DF.edgesConsidered
	a.DF.edgesExamined += b.DF.edgesExamined
	a.DF.edgesFiltered += b.DF.edgesFiltered
	a.DF.samplesTouch += b.DF.samplesTouch
	a.BufferBytes += b.BufferBytes
	a.FramesOut += b.FramesOut
	a.Concealed += b.Concealed
}

// Decoder decodes the model's annex-B streams. DeblockEnabled is the
// affect-driven Deblocking Filter knob: when false the in-loop filter is
// skipped, saving its energy at the cost of blocking artifacts (and slight
// reference drift, since conforming encoders filter their references).
type Decoder struct {
	DeblockEnabled bool

	width, height int
	qp            int
	haveSPS       bool
	havePPS       bool

	lastRef  *Frame
	lastOut  *Frame
	nextNum  int
	activity Activity

	pool        *FramePool // optional frame recycling; nil means plain allocation
	mbScratch   []mbInfo   // per-slice macroblock info, reused across slices
	unitScratch []NAL      // split-stream scratch, reused across streams
	// The current macroblock's parsed luma residual: the zig-zag levels
	// of its sixteen 4x4 blocks in raster block order. A block's scan is
	// valid only when the block has nonzero levels.
	scans [16][16]int32
}

// maxConcealGap bounds how many consecutive missing frame numbers the
// decoder will conceal; larger jumps indicate a corrupted header rather
// than deleted NAL units.
const maxConcealGap = 512

// NewDecoder returns a decoder with the deblocking filter enabled.
func NewDecoder() *Decoder { return &Decoder{DeblockEnabled: true} }

// SetDeblock switches the in-loop filter — the affect loop's DF knob.
// Prefer it over writing DeblockEnabled directly: knob transitions are
// counted for the observability layer.
func (d *Decoder) SetDeblock(on bool) {
	if d.DeblockEnabled != on {
		mtr.deblockSwitches.Inc()
	}
	d.DeblockEnabled = on
}

// Activity returns the accumulated decode activity.
func (d *Decoder) Activity() Activity { return d.activity }

// SetPool attaches a FramePool; subsequent output frames are drawn from it.
// The caller owns the returned frames and decides when to Put them back —
// the decoder never recycles a frame it has handed out (lastRef/lastOut
// still alias outputs, so premature reuse would corrupt prediction).
func (d *Decoder) SetPool(p *FramePool) { d.pool = p }

// Reset clears stream state (parameter sets, references, frame numbering)
// while keeping the deblock knob, attached pool, and accumulated activity,
// so one decoder can run many streams back to back.
func (d *Decoder) Reset() {
	d.width, d.height, d.qp = 0, 0, 0
	d.haveSPS, d.havePPS = false, false
	d.lastRef, d.lastOut = nil, nil
	d.nextNum = 0
}

// cloneFrame deep-copies src, through the pool when one is attached.
func (d *Decoder) cloneFrame(src *Frame) *Frame {
	if d.pool == nil {
		return src.Clone()
	}
	f, err := d.pool.Get(src.Width, src.Height)
	if err != nil {
		return src.Clone()
	}
	copy(f.Y, src.Y)
	copy(f.Cb, src.Cb)
	copy(f.Cr, src.Cr)
	return f
}

// DecodeStream splits an annex-B stream and decodes every NAL unit,
// returning output frames in display order. Gaps in frame numbering
// (deleted NAL units) are concealed by repeating the previous output.
func (d *Decoder) DecodeStream(stream []byte) ([]*Frame, error) {
	return d.DecodeStreamInto(stream, nil)
}

// DecodeStreamInto is DecodeStream appending into out (reusing its backing
// array) — pass the previous call's slice as out[:0] to recycle it. With a
// FramePool attached and the previous frames returned to it, repeated
// decodes of a stream run allocation-free in steady state.
func (d *Decoder) DecodeStreamInto(stream []byte, out []*Frame) ([]*Frame, error) {
	units, err := SplitStreamInto(stream, d.unitScratch[:0])
	if err != nil {
		return nil, err
	}
	d.unitScratch = units[:0]
	return d.decodeUnitsInto(units, out)
}

// DecodeUnits decodes a sequence of NAL units.
func (d *Decoder) DecodeUnits(units []NAL) ([]*Frame, error) {
	return d.decodeUnitsInto(units, nil)
}

func (d *Decoder) decodeUnitsInto(units []NAL, out []*Frame) ([]*Frame, error) {
	var err error
	for _, u := range units {
		out, err = d.decodeNALInto(u, out)
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// DecodeNAL decodes one NAL unit. Slice units yield one or more frames
// (more than one when concealment fills a numbering gap).
func (d *Decoder) DecodeNAL(u NAL) ([]*Frame, error) {
	return d.decodeNALInto(u, nil)
}

func (d *Decoder) decodeNALInto(u NAL, out []*Frame) ([]*Frame, error) {
	switch u.Type {
	case NALSPS:
		r := NewBitReader(u.Payload)
		mbw, err := r.ReadUE()
		if err != nil {
			return nil, err
		}
		mbh, err := r.ReadUE()
		if err != nil {
			return nil, err
		}
		if mbw >= 1024 || mbh >= 1024 {
			return nil, fmt.Errorf("%w: SPS dimensions %dx%d MBs unreasonable", ErrBitstream, mbw+1, mbh+1)
		}
		chromaBit, err := r.ReadBit()
		if err != nil {
			return nil, err
		}
		if chromaBit != 0 {
			return nil, fmt.Errorf("%w: SPS signals chroma; only luma-only streams are supported", ErrBitstream)
		}
		d.width, d.height = (int(mbw)+1)*16, (int(mbh)+1)*16
		d.haveSPS = true
		d.activity.HeaderBits += r.BitsRead()
		return out, nil
	case NALPPS:
		r := NewBitReader(u.Payload)
		qp, err := r.ReadUE()
		if err != nil {
			return nil, err
		}
		if !ValidQP(int(qp)) {
			return nil, fmt.Errorf("%w: PPS QP %d", ErrBitstream, qp)
		}
		d.qp = int(qp)
		d.havePPS = true
		d.activity.HeaderBits += r.BitsRead()
		return out, nil
	case NALSliceIDR, NALSliceNonIDR:
		if !d.haveSPS || !d.havePPS {
			return nil, fmt.Errorf("%w: slice before SPS/PPS", ErrBitstream)
		}
		return d.decodeSlice(u, out)
	default:
		return nil, fmt.Errorf("h264: unsupported NAL type %v", u.Type)
	}
}

// decodeSlice decodes one coded picture, appending its output (including
// any gap-concealment frames) to out.
func (d *Decoder) decodeSlice(u NAL, out []*Frame) ([]*Frame, error) {
	r := NewBitReader(u.Payload)
	stVal, err := r.ReadUE()
	if err != nil {
		return nil, err
	}
	st := SliceType(stVal)
	if st != SliceI && st != SliceP && st != SliceB {
		return nil, fmt.Errorf("%w: slice type %d", ErrBitstream, stVal)
	}
	numVal, err := r.ReadUE()
	if err != nil {
		return nil, err
	}
	frameNum := int(numVal)
	if gap := frameNum - d.nextNum; gap > maxConcealGap {
		return nil, fmt.Errorf("%w: frame number jumps by %d", ErrBitstream, gap)
	}
	d.activity.HeaderBits += r.BitsRead()

	// Concealment: repeat the previous output for any skipped numbers.
	for d.nextNum < frameNum {
		if d.lastOut != nil {
			out = append(out, d.cloneFrame(d.lastOut))
			d.activity.Concealed++
			d.activity.FramesOut++
			mtr.framesConcealed.Inc()
			mtr.framesOut.Inc()
		}
		d.nextNum++
	}
	if st != SliceI && d.lastRef == nil {
		return nil, fmt.Errorf("%w: inter slice %d without reference", ErrBitstream, frameNum)
	}

	recon, err := d.pool.Get(d.width, d.height)
	if err != nil {
		return nil, err
	}
	mbw, mbh := recon.MBWidth(), recon.MBHeight()
	if cap(d.mbScratch) < mbw*mbh {
		d.mbScratch = make([]mbInfo, mbw*mbh)
	}
	mbs := d.mbScratch[:mbw*mbh]
	for i := range mbs {
		mbs[i] = mbInfo{}
	}
	for my := 0; my < mbh; my++ {
		for mx := 0; mx < mbw; mx++ {
			info := &mbs[my*mbw+mx]
			if st == SliceI {
				if err := d.decodeIntraMB(r, recon, mx, my, info); err != nil {
					return nil, fmt.Errorf("frame %d MB (%d,%d): %w", frameNum, mx, my, err)
				}
			} else {
				if err := d.decodeInterMB(r, recon, mx, my, info); err != nil {
					return nil, fmt.Errorf("frame %d MB (%d,%d): %w", frameNum, mx, my, err)
				}
			}
		}
	}
	if d.DeblockEnabled {
		fst := DeblockFrame(recon, mbs, d.qp)
		d.activity.DF.edgesConsidered += fst.edgesConsidered
		d.activity.DF.edgesExamined += fst.edgesExamined
		d.activity.DF.edgesFiltered += fst.edgesFiltered
		d.activity.DF.samplesTouch += fst.samplesTouch
		mtr.deblockOn.Inc()
	} else {
		mtr.deblockOff.Inc()
	}
	if st != SliceB {
		d.lastRef = recon
	}
	d.lastOut = recon
	d.nextNum = frameNum + 1
	d.activity.FramesOut++
	mtr.framesOut.Inc()
	out = append(out, recon)
	return out, nil
}

// ConcealTo emits repeated copies of the last output until frame numbers
// 0..n-1 are all covered, concealing trailing deleted NAL units. It
// returns the concealment frames (possibly none).
func (d *Decoder) ConcealTo(n int) []*Frame {
	var out []*Frame
	for d.nextNum < n && d.lastOut != nil {
		out = append(out, d.cloneFrame(d.lastOut))
		d.activity.Concealed++
		d.activity.FramesOut++
		mtr.framesConcealed.Inc()
		mtr.framesOut.Inc()
		d.nextNum++
	}
	return out
}

// decodeIntraMB mirrors Encoder.encodeIntraMB. Each 4x4 block is
// predicted straight into the plane (its neighbours are the blocks
// reconstructed before it), and the residual is added in place only
// where the block has nonzero levels.
//
// The mode codes are ue(v) 0, 1 and 2: the bits 1, 010 and 011, read
// from the reader's cache. Any other code, or a cache holding fewer
// than three bits after a refill, goes through ReadUE, so a bad or
// truncated code fails at the bit it always did. The mode's predictor
// (predictV4, predictH4, predictDC4) is called directly. An empty block
// is a cached bit 1 (the cache's bits past nbits are zero, so a set top
// bit is a cached 1).
//
// Bit accounting: a block's header is its mode code, whose length
// follows from the value; the residual bits are the rest of what the
// macroblock consumed. On an error only the syntax elements read whole
// count, so the position before each element that can fail (a slow
// mode code, a coded residual) is kept in mark.
func (d *Decoder) decodeIntraMB(r *BitReader, recon *Frame, mx, my int, info *mbInfo) error {
	info.intra = true
	w, y := recon.Width, recon.Y
	scan, dq := &d.scans[0], &dequantScan[d.qp]
	start := r.BitsRead()
	mark, hdr := start, 0
	var err error
	blk := 0
blocks:
	for ; blk < 16; blk++ {
		x, yy := mx*16+blk%4*4, my*16+blk/4*4
		off := yy*w + x
		if r.nbits < 3 {
			r.refill()
		}
		c := r.cache >> 61
		if r.nbits < 3 {
			c = 0 // the stream ends within three bits: ReadUE decides
		}
		// One branch per block on its mode code both consumes the code
		// and predicts.
		switch {
		case c >= 4: // 1: vertical
			r.skip(1)
			hdr++
			predictV4(y, off, w, yy > 0)
		case c == 2: // 010: horizontal
			r.skip(3)
			hdr += 3
			predictH4(y, off, w, x > 0)
		case c == 3: // 011: DC
			r.skip(3)
			hdr += 3
			predictDC4(y, off, w, x > 0, yy > 0)
		default:
			mark = r.BitsRead()
			var v uint32
			if v, err = r.ReadUE(); err != nil {
				break blocks
			}
			hdr += 2*bits.Len64(uint64(v)+1) - 1
			if err = predictIntraInto(y, off, w, x > 0, yy > 0, IntraMode(v)); err != nil {
				mark = r.BitsRead()
				break blocks
			}
		}
		if r.cache>>63 != 0 {
			r.skip(1)
			continue
		}
		mark = r.BitsRead()
		var nz int
		if nz, err = decodeCodedResidual(r, scan); err != nil {
			d.activity.IntraBlocks++ // its prediction counts, its residual does not
			break
		}
		if nz > 0 {
			info.coded = true
			addIQIT4(y[off:], w, scan, dq, nz == 1 && scan[0] != 0)
		}
	}
	if err == nil {
		mark = r.BitsRead()
		d.activity.CodedMBs++
	}
	d.activity.IntraBlocks += blk
	d.activity.BlocksIQIT += blk
	d.activity.HeaderBits += hdr
	d.activity.ResidualBits += mark - start - hdr
	return err
}

// decodeInterMB mirrors Encoder.encodeInterMB. All sixteen residual
// blocks are parsed before any sample is written: motion-compensated
// prediction reads only the reference frame, never this macroblock's
// own reconstruction, so the order of parsing and reconstruction is
// free. A block without levels is the single bit 1, so a run of k such
// blocks is k leading ones of the reader's cache, taken in one step.
func (d *Decoder) decodeInterMB(r *BitReader, recon *Frame, mx, my int, info *mbInfo) error {
	start := r.BitsRead()
	skip, err := r.ReadBit()
	if err != nil {
		return err
	}
	if skip == 1 {
		d.activity.HeaderBits++
		d.activity.SkipMBs++
		// A skip MB is zero-MV prediction plus zero residual; the sixteen
		// 4x4 motion-compensated predictions it stands for still count
		// toward InterBlocks.
		d.reconInterMB(recon, mx, my, MV{}, 0, 0)
		d.activity.InterBlocks += 16
		return nil
	}
	mvx, err := r.ReadSE()
	if err != nil {
		return err
	}
	mvy, err := r.ReadSE()
	if err != nil {
		return err
	}
	hdrEnd := r.BitsRead()
	d.activity.HeaderBits += hdrEnd - start
	mv := MV{int(mvx), int(mvy)}
	info.mv = mv
	var coded, dc uint16
	for blk := 0; blk < 16; {
		if k := r.leadingOnes(16 - blk); k > 0 {
			r.skip(k)
			blk += k
			continue
		}
		mark := r.BitsRead()
		nz, err := decodeCodedResidual(r, &d.scans[blk])
		if err != nil {
			// As when each block was counted on its own: the failing
			// block's prediction counts, its residual does not.
			d.activity.InterBlocks += blk + 1
			d.activity.BlocksIQIT += blk
			d.activity.ResidualBits += mark - hdrEnd
			return err
		}
		coded |= 1 << blk // a block that is not the bit 1 has levels
		if nz == 1 && d.scans[blk][0] != 0 {
			dc |= 1 << blk
		}
		blk++
	}
	d.activity.InterBlocks += 16
	d.activity.BlocksIQIT += 16
	d.activity.ResidualBits += r.BitsRead() - hdrEnd
	info.coded = coded != 0
	d.reconInterMB(recon, mx, my, mv, coded, dc)
	d.activity.CodedMBs++
	return nil
}

// reconInterMB writes the luma of inter macroblock (mx, my): the 16x16
// prediction from the reference displaced by mv, then the parsed
// residual in d.scans added in place to the blocks flagged in coded.
// Residual-free blocks are exact copies of their prediction
// (clamp(pred+0) == pred for uint8 samples), so they skip the inverse
// transform. A prediction inside the reference is sixteen row copies.
// One that reaches past its edge is edge-extended a row at a time:
// the row is the reference row at the clamped y, and its columns left
// of the picture repeat the row's first sample, those inside are one
// copy, and those right of it repeat the last sample.
func (d *Decoder) reconInterMB(recon *Frame, mx, my int, mv MV, coded, dc uint16) {
	ref := d.lastRef
	dw, sw := recon.Width, ref.Width
	x0, y0 := mx*16+mv.X, my*16+mv.Y
	dst := recon.Y[my*16*dw+mx*16:]
	if x0 >= 0 && y0 >= 0 && x0+16 <= sw && y0+16 <= ref.Height {
		src := ref.Y[y0*sw+x0:]
		for row, so, do := 0, 0, 0; row < 16; row, so, do = row+1, so+sw, do+dw {
			copy16(dst[do:], src[so:])
		}
	} else {
		// Columns [0, nl) lie left of the reference and [16-nr, 16)
		// right of it. The reference is at least 16 samples wide, so at
		// most one of the two is nonempty.
		nl := min(max(-x0, 0), 16)
		nr := min(max(x0+16-sw, 0), 16)
		sx := min(max(x0, 0), sw-1)
		for row := 0; row < 16; row++ {
			sy := min(max(y0+row, 0), ref.Height-1)
			s, d := ref.Y[sy*sw:sy*sw+sw], dst[row*dw:row*dw+16]
			if nl|nr == 0 {
				copy16(d, s[sx:])
				continue
			}
			fill(d[:nl], s[0])
			copy(d[nl:16-nr], s[sx:])
			fill(d[16-nr:], s[sw-1])
		}
	}
	dq := &dequantScan[d.qp]
	for m := coded; m != 0; m &= m - 1 {
		blk := bits.TrailingZeros16(m)
		addIQIT4(dst[blk/4*4*dw+blk%4*4:], dw, &d.scans[blk], dq, dc>>blk&1 != 0)
	}
}

// fill sets every sample of s to v.
func fill(s []uint8, v uint8) {
	for i := range s {
		s[i] = v
	}
}

// copy16 copies one 16-sample row segment as one 16-byte move (a slice
// copy this short costs more in the memmove call than in the move).
func copy16(dst, src []uint8) {
	*(*[16]uint8)(dst) = *(*[16]uint8)(src)
}
