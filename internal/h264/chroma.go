package h264

import (
	"fmt"
	"math"
)

// 4:2:0 chroma coding, enabled by EncoderConfig.Chroma and signalled in
// the SPS. Each macroblock carries an 8x8 block per chroma plane (four
// 4x4 residual blocks each), intra-predicted with the DC predictor and
// motion-compensated at half the luma vector, per the 4:2:0 geometry.
// The Fig 6 power calibration profile is luma-only (the paper's module
// power breakdown is luma-dominated); chroma is the completeness option
// for users of the codec itself.

// CWidth returns the chroma plane width.
func (f *Frame) CWidth() int { return f.Width / 2 }

// CHeight returns the chroma plane height.
func (f *Frame) CHeight() int { return f.Height / 2 }

// CAt returns a chroma sample with edge clamping. plane selects Cb (0)
// or Cr (1).
func (f *Frame) CAt(plane, x, y int) uint8 {
	w, h := f.CWidth(), f.CHeight()
	if x < 0 {
		x = 0
	}
	if x >= w {
		x = w - 1
	}
	if y < 0 {
		y = 0
	}
	if y >= h {
		y = h - 1
	}
	if plane == 0 {
		return f.Cb[y*w+x]
	}
	return f.Cr[y*w+x]
}

// SetC stores a chroma sample, ignoring out-of-plane coordinates.
func (f *Frame) SetC(plane, x, y int, v uint8) {
	w, h := f.CWidth(), f.CHeight()
	if x < 0 || x >= w || y < 0 || y >= h {
		return
	}
	if plane == 0 {
		f.Cb[y*w+x] = v
	} else {
		f.Cr[y*w+x] = v
	}
}

// FillChroma sets both chroma planes to a constant (128 = neutral gray).
func (f *Frame) FillChroma(cb, cr uint8) {
	for i := range f.Cb {
		f.Cb[i] = cb
	}
	for i := range f.Cr {
		f.Cr[i] = cr
	}
}

// predictChromaDC fills a 4x4 DC prediction for plane at (bx, by) in the
// chroma plane from reconstructed neighbors.
func predictChromaDC(f *Frame, plane, bx, by int) Block4 {
	var pred Block4
	hasTop := by > 0
	hasLeft := bx > 0
	var sum, n int32
	if hasTop {
		for c := 0; c < 4; c++ {
			sum += int32(f.CAt(plane, bx+c, by-1))
		}
		n += 4
	}
	if hasLeft {
		for r := 0; r < 4; r++ {
			sum += int32(f.CAt(plane, bx-1, by+r))
		}
		n += 4
	}
	dc := int32(128)
	if n > 0 {
		dc = (sum + n/2) / n
	}
	for i := range pred {
		pred[i] = dc
	}
	return pred
}

// predictChromaInter fills a motion-compensated 4x4 chroma prediction at
// half the luma motion vector (rounded toward zero).
func predictChromaInter(ref *Frame, plane, bx, by int, mv MV) Block4 {
	var pred Block4
	cx, cy := mv.X/2, mv.Y/2
	for r := 0; r < 4; r++ {
		for c := 0; c < 4; c++ {
			pred[r*4+c] = int32(ref.CAt(plane, bx+c+cx, by+r+cy))
		}
	}
	return pred
}

// chromaResidual returns original minus prediction for a chroma block.
func chromaResidual(orig *Frame, plane, bx, by int, pred Block4) Block4 {
	var res Block4
	for r := 0; r < 4; r++ {
		for c := 0; c < 4; c++ {
			res[r*4+c] = int32(orig.CAt(plane, bx+c, by+r)) - pred[r*4+c]
		}
	}
	return res
}

// reconstructChroma writes clamp(pred + residual) into the chroma plane.
func reconstructChroma(f *Frame, plane, bx, by int, pred, residual Block4) {
	for r := 0; r < 4; r++ {
		for c := 0; c < 4; c++ {
			f.SetC(plane, bx+c, by+r, clampU8(pred[r*4+c]+residual[r*4+c]))
		}
	}
}

// chromaBlocksPerMB iterates the 4x4 chroma blocks of macroblock (mx, my):
// per plane, a 2x2 grid of 4x4 blocks covering the MB's 8x8 chroma area.
func chromaBlocksPerMB(mx, my int, fn func(plane, bx, by int) error) error {
	for plane := 0; plane < 2; plane++ {
		for by := 0; by < 8; by += 4 {
			for bx := 0; bx < 8; bx += 4 {
				if err := fn(plane, mx*8+bx, my*8+by); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// encodeChromaMB codes the chroma blocks of one macroblock.
func (e *Encoder) encodeChromaMB(w *BitWriter, orig, recon *Frame, mx, my, qp int, intra bool, mv MV) error {
	cqp := chromaQP(qp)
	return chromaBlocksPerMB(mx, my, func(plane, bx, by int) error {
		var pred Block4
		if intra {
			pred = predictChromaDC(recon, plane, bx, by)
		} else {
			pred = predictChromaInter(e.lastRef, plane, bx, by, mv)
		}
		res := chromaResidual(orig, plane, bx, by, pred)
		var scan [16]int32
		if _, err := transformQuantizeScan(&res, cqp, &scan); err != nil {
			return err
		}
		encodeResidualScan(w, &scan)
		var rec Block4
		if err := iqitScanInto(&scan, cqp, &rec); err != nil {
			return err
		}
		reconstructChroma(recon, plane, bx, by, pred, rec)
		return nil
	})
}

// decodeChromaMB mirrors encodeChromaMB.
func (d *Decoder) decodeChromaMB(r *BitReader, recon *Frame, mx, my int, intra bool, mv MV) error {
	cqp := chromaQP(d.qp)
	return chromaBlocksPerMB(mx, my, func(plane, bx, by int) error {
		var pred Block4
		if intra {
			pred = predictChromaDC(recon, plane, bx, by)
		} else {
			pred = predictChromaInter(d.lastRef, plane, bx, by, mv)
		}
		var scan [16]int32
		bits, nz, err := decodeResidualScan(r, &scan)
		if err != nil {
			return err
		}
		d.activity.ResidualBits += bits
		// An all-zero residual reconstructs to the prediction itself; the
		// block still counts as IQIT work, which the power model charges.
		var res Block4
		if nz > 0 {
			if err := iqitScanInto(&scan, cqp, &res); err != nil {
				return err
			}
		}
		d.activity.BlocksIQIT++
		reconstructChroma(recon, plane, bx, by, pred, res)
		return nil
	})
}

// copyChromaMB copies the co-located chroma of a skip macroblock.
func copyChromaMB(dst, ref *Frame, mx, my int) {
	for plane := 0; plane < 2; plane++ {
		for y := 0; y < 8; y++ {
			for x := 0; x < 8; x++ {
				dst.SetC(plane, mx*8+x, my*8+y, ref.CAt(plane, mx*8+x, my*8+y))
			}
		}
	}
}

// chromaQP maps luma QP to chroma QP (simplified: clamp the spec's
// roughly-equal mapping below QP 30, slightly lower above).
func chromaQP(qp int) int {
	if qp <= 30 {
		return qp
	}
	c := 30 + (qp-30)*3/4
	if c > 51 {
		c = 51
	}
	return c
}

// ChromaPSNR returns the mean chroma PSNR (both planes) between frames.
func ChromaPSNR(a, b *Frame) (float64, error) {
	if a.Width != b.Width || a.Height != b.Height {
		return 0, fmt.Errorf("h264: chroma PSNR dimension mismatch %dx%d vs %dx%d",
			a.Width, a.Height, b.Width, b.Height)
	}
	var sse float64
	for i := range a.Cb {
		d := float64(a.Cb[i]) - float64(b.Cb[i])
		sse += d * d
		d = float64(a.Cr[i]) - float64(b.Cr[i])
		sse += d * d
	}
	n := float64(2 * len(a.Cb))
	if sse == 0 {
		return math.Inf(1), nil
	}
	mse := sse / n
	return 10 * math.Log10(255*255/mse), nil
}
