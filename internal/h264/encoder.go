package h264

import (
	"fmt"
)

// SliceType is the coded picture type.
type SliceType int

// Slice types. B slices in this model are forward-predicted from the
// previous reference picture and are never themselves references
// (nal_ref_idc == 0), which makes them the droppable units the paper's
// Input Selector targets.
const (
	SliceP SliceType = 0
	SliceB SliceType = 1
	SliceI SliceType = 2
)

// String returns the slice type letter.
func (t SliceType) String() string {
	switch t {
	case SliceP:
		return "P"
	case SliceB:
		return "B"
	case SliceI:
		return "I"
	}
	return fmt.Sprintf("slice(%d)", int(t))
}

// EncoderConfig parameterizes the encoder.
type EncoderConfig struct {
	Width, Height int
	QP            int
	// IntraPeriod is the distance between I frames (GOP length).
	IntraPeriod int
	// BFrames is the number of consecutive B frames between references
	// (pattern I B..B P B..B P ...).
	BFrames int
	// SearchWindow is the full-pel motion search range.
	SearchWindow int
}

// DefaultEncoderConfig returns a QCIF-class configuration.
func DefaultEncoderConfig(width, height int) EncoderConfig {
	return EncoderConfig{
		Width: width, Height: height,
		QP:           30,
		IntraPeriod:  12,
		BFrames:      2,
		SearchWindow: 4,
	}
}

func (c EncoderConfig) validate() error {
	if c.Width <= 0 || c.Height <= 0 || c.Width%16 != 0 || c.Height%16 != 0 {
		return fmt.Errorf("h264: encoder size %dx%d must be positive multiples of 16", c.Width, c.Height)
	}
	if !ValidQP(c.QP) {
		return fmt.Errorf("h264: encoder QP %d out of range", c.QP)
	}
	if c.IntraPeriod <= 0 {
		return fmt.Errorf("h264: intra period %d must be positive", c.IntraPeriod)
	}
	if c.BFrames < 0 || c.BFrames >= c.IntraPeriod {
		return fmt.Errorf("h264: BFrames %d must be in [0, intra period)", c.BFrames)
	}
	if c.SearchWindow < 0 {
		return fmt.Errorf("h264: negative search window")
	}
	return nil
}

// Encoder turns raw frames into an annex-B byte stream. It keeps the
// decoder-side reconstruction of reference pictures so prediction cannot
// drift.
type Encoder struct {
	cfg     EncoderConfig
	lastRef *Frame // reconstructed previous reference
	nFrames int

	pool      *FramePool // recycles superseded reference / B reconstructions
	mbScratch []mbInfo   // per-frame macroblock info, reused across frames
}

// NewEncoder returns an encoder for the given configuration.
func NewEncoder(cfg EncoderConfig) (*Encoder, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	return &Encoder{cfg: cfg, pool: NewFramePool()}, nil
}

// writeSPS emits the sequence parameter set: the dimensions in
// macroblocks, then the chroma bit, always 0 (the model codes luma only).
func (e *Encoder) writeSPS() NAL {
	w := NewBitWriter()
	w.WriteUE(uint32(e.cfg.Width/16 - 1))
	w.WriteUE(uint32(e.cfg.Height/16 - 1))
	w.WriteBit(0)
	return NAL{Type: NALSPS, RefIDC: 3, Payload: w.Bytes(true)}
}

// writePPS emits the picture parameter set (QP).
func (e *Encoder) writePPS() NAL {
	w := NewBitWriter()
	w.WriteUE(uint32(e.cfg.QP))
	return NAL{Type: NALPPS, RefIDC: 3, Payload: w.Bytes(true)}
}

// frameType returns the slice type of display-order frame n.
func (e *Encoder) frameType(n int) SliceType {
	pos := n % e.cfg.IntraPeriod
	if pos == 0 {
		return SliceI
	}
	// Positions within the GOP cycle: after a reference, BFrames B
	// pictures precede the next P reference.
	if e.cfg.BFrames > 0 && pos%(e.cfg.BFrames+1) != 0 {
		return SliceB
	}
	return SliceP
}

// EncodeSequence encodes frames (display order) into a complete annex-B
// stream beginning with SPS and PPS.
func (e *Encoder) EncodeSequence(frames []*Frame) ([]byte, []NAL, error) {
	if len(frames) == 0 {
		return nil, nil, fmt.Errorf("h264: no frames to encode")
	}
	units := []NAL{e.writeSPS(), e.writePPS()}
	for _, f := range frames {
		nal, err := e.EncodeFrame(f)
		if err != nil {
			return nil, nil, err
		}
		units = append(units, nal)
	}
	stream, err := MarshalStream(units)
	if err != nil {
		return nil, nil, err
	}
	return stream, units, nil
}

// EncodeFrame encodes the next display-order frame into one slice NAL.
func (e *Encoder) EncodeFrame(orig *Frame) (NAL, error) {
	if orig.Width != e.cfg.Width || orig.Height != e.cfg.Height {
		return NAL{}, fmt.Errorf("h264: frame %dx%d does not match encoder %dx%d",
			orig.Width, orig.Height, e.cfg.Width, e.cfg.Height)
	}
	n := e.nFrames
	e.nFrames++
	st := e.frameType(n)
	if st != SliceI && e.lastRef == nil {
		st = SliceI // cannot predict without a reference
	}

	w := NewBitWriter()
	w.WriteUE(uint32(st))
	w.WriteUE(uint32(n))
	recon, err := e.pool.Get(e.cfg.Width, e.cfg.Height)
	if err != nil {
		return NAL{}, err
	}
	mbw, mbh := orig.MBWidth(), orig.MBHeight()
	if cap(e.mbScratch) < mbw*mbh {
		e.mbScratch = make([]mbInfo, mbw*mbh)
	}
	mbs := e.mbScratch[:mbw*mbh]
	for i := range mbs {
		mbs[i] = mbInfo{}
	}
	qp := e.cfg.QP
	for my := 0; my < mbh; my++ {
		for mx := 0; mx < mbw; mx++ {
			info := &mbs[my*mbw+mx]
			if st == SliceI {
				if err := e.encodeIntraMB(w, orig, recon, mx, my, qp, info); err != nil {
					return NAL{}, err
				}
			} else {
				if err := e.encodeInterMB(w, orig, recon, mx, my, qp, info); err != nil {
					return NAL{}, err
				}
			}
		}
	}
	// In-loop filter on the reconstruction; references must match the
	// decoder's filtered reconstruction.
	DeblockFrame(recon, mbs, qp)
	nal := NAL{Type: NALSliceNonIDR, RefIDC: 2, Payload: w.Bytes(true)}
	// Reconstructions never escape the encoder, so superseded references
	// and B-frame recons (which are never references) recycle immediately:
	// frame encoding reaches a steady state of zero plane allocations.
	switch st {
	case SliceI:
		nal.Type = NALSliceIDR
		nal.RefIDC = 3
		e.pool.Put(e.lastRef)
		e.lastRef = recon
	case SliceP:
		e.pool.Put(e.lastRef)
		e.lastRef = recon
	case SliceB:
		nal.RefIDC = 0 // non-reference: droppable
		e.pool.Put(recon)
	}
	return nal, nil
}

// encodeIntraMB codes a 16x16 macroblock as 16 intra 4x4 blocks: per block
// a mode ue(v) then the CAVLC residual.
func (e *Encoder) encodeIntraMB(w *BitWriter, orig, recon *Frame, mx, my, qp int, info *mbInfo) error {
	info.intra = true
	for by := 0; by < 16; by += 4 {
		for bx := 0; bx < 16; bx += 4 {
			x, y := mx*16+bx, my*16+by
			mode, pred, err := bestIntraMode(orig, recon, x, y)
			if err != nil {
				return err
			}
			w.WriteUE(uint32(mode))
			res := blockResidual(orig, x, y, pred)
			var scan [16]int32
			nz, err := transformQuantizeScan(&res, qp, &scan)
			if err != nil {
				return err
			}
			if nz > 0 {
				info.coded = true
			}
			encodeResidualScan(w, &scan)
			var rec Block4
			if err := iqitScanInto(&scan, qp, &rec); err != nil {
				return err
			}
			reconstructBlock(recon, x, y, pred, rec)
		}
	}
	return nil
}

// bestIntraMode picks the lowest-SAD mode among vertical/horizontal/DC
// using reconstructed neighbors.
func bestIntraMode(orig, recon *Frame, x, y int) (IntraMode, Block4, error) {
	bestMode := IntraDC
	var bestPred Block4
	bestSAD := 1 << 30
	for _, m := range []IntraMode{IntraVertical, IntraHorizontal, IntraDC} {
		pred, err := PredictIntra4(recon, x, y, m)
		if err != nil {
			return 0, Block4{}, err
		}
		var sad int
		for r := 0; r < 4; r++ {
			for c := 0; c < 4; c++ {
				d := int(orig.YAt(x+c, y+r)) - int(pred[r*4+c])
				if d < 0 {
					d = -d
				}
				sad += d
			}
		}
		if sad < bestSAD {
			bestSAD, bestMode, bestPred = sad, m, pred
		}
	}
	return bestMode, bestPred, nil
}

// encodeInterMB codes a P/B macroblock: skip bit, else MV (se(v) x2) and
// 16 CAVLC residual blocks.
func (e *Encoder) encodeInterMB(w *BitWriter, orig, recon *Frame, mx, my, qp int, info *mbInfo) error {
	ref := e.lastRef
	mv := searchMV(orig, ref, mx, my, e.cfg.SearchWindow)
	info.mv = mv
	// Evaluate skip: zero MV and negligible residual.
	var zeroSAD int
	for by := 0; by < 16; by += 4 {
		for bx := 0; bx < 16; bx += 4 {
			zeroSAD += sadBlock(orig, ref, mx*16+bx, my*16+by, MV{})
		}
	}
	if zeroSAD <= 16*16 { // about 1 gray level per sample
		w.WriteBit(1) // mb_skip
		info.mv = MV{}
		// Same co-located 16x16 copy as the decoder's skip path (zero MV,
		// zero residual, clamp(ref) == ref).
		fw := recon.Width
		top := my * 16 * fw
		left := mx * 16
		for row := 0; row < 16; row++ {
			off := top + row*fw + left
			copy(recon.Y[off:off+16], ref.Y[off:off+16])
		}
		return nil
	}
	w.WriteBit(0)
	w.WriteSE(int32(mv.X))
	w.WriteSE(int32(mv.Y))
	for by := 0; by < 16; by += 4 {
		for bx := 0; bx < 16; bx += 4 {
			x, y := mx*16+bx, my*16+by
			pred := PredictInter4(ref, x, y, mv)
			res := blockResidual(orig, x, y, pred)
			var scan [16]int32
			nz, err := transformQuantizeScan(&res, qp, &scan)
			if err != nil {
				return err
			}
			if nz > 0 {
				info.coded = true
			}
			encodeResidualScan(w, &scan)
			var rec Block4
			if err := iqitScanInto(&scan, qp, &rec); err != nil {
				return err
			}
			reconstructBlock(recon, x, y, pred, rec)
		}
	}
	return nil
}
