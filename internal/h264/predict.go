package h264

import (
	"encoding/binary"
	"fmt"

	"affectedge/internal/simd"
)

// IntraMode is a luma 4x4 intra prediction mode. The model implements the
// three most common spec modes.
type IntraMode int

// Intra 4x4 prediction modes (spec numbering).
const (
	IntraVertical   IntraMode = 0
	IntraHorizontal IntraMode = 1
	IntraDC         IntraMode = 2
)

// String returns the mode name.
func (m IntraMode) String() string {
	switch m {
	case IntraVertical:
		return "vertical"
	case IntraHorizontal:
		return "horizontal"
	case IntraDC:
		return "dc"
	}
	return fmt.Sprintf("intra(%d)", int(m))
}

// PredictIntra4 fills a 4x4 luma prediction for the block whose top-left
// corner is (bx, by) in frame f, from already-reconstructed neighbors.
// Unavailable neighbors (frame edge) fall back per spec: DC averages the
// available sides or uses 128; directional modes replicate 128. It runs
// predictIntraInto on a 5x5 patch holding the block's top row and left
// column of neighbours.
func PredictIntra4(f *Frame, bx, by int, mode IntraMode) (Block4, error) {
	var patch [25]uint8
	hasTop, hasLeft := by > 0, bx > 0
	if hasTop {
		copy(patch[1:5], f.Y[(by-1)*f.Width+bx:])
	}
	if hasLeft {
		for r := 0; r < 4; r++ {
			patch[(r+1)*5] = f.Y[(by+r)*f.Width+bx-1]
		}
	}
	var pred Block4
	if err := predictIntraInto(patch[:], 6, 5, hasLeft, hasTop, mode); err != nil {
		return pred, err
	}
	for r := 0; r < 4; r++ {
		for c := 0; c < 4; c++ {
			pred[r*4+c] = int32(patch[(r+1)*5+1+c])
		}
	}
	return pred, nil
}

// predictIntraInto writes the 4x4 intra prediction of the block whose
// top-left sample is y[off] (rows stride apart) straight into the plane,
// reading its already-reconstructed neighbours there. hasLeft and hasTop
// say whether the block has a left column and a top row to predict from;
// an unavailable side falls back per spec (DC averages the available
// sides or uses 128, directional modes replicate 128).
func predictIntraInto(y []uint8, off, stride int, hasLeft, hasTop bool, mode IntraMode) error {
	switch mode {
	case IntraVertical:
		predictV4(y, off, stride, hasTop)
	case IntraHorizontal:
		predictH4(y, off, stride, hasLeft)
	case IntraDC:
		predictDC4(y, off, stride, hasLeft, hasTop)
	default:
		return fmt.Errorf("h264: unknown intra mode %d", int(mode))
	}
	return nil
}

// predictV4, predictH4 and predictDC4 are predictIntraInto's three
// modes, each a word store per row. The decoder's intra macroblock
// calls them directly once it has its mode.

// predictV4 repeats the top row, or 128 without one, down the block.
func predictV4(y []uint8, off, stride int, hasTop bool) {
	t := uint32(0x80808080)
	if hasTop {
		t = binary.LittleEndian.Uint32(y[off-stride:])
	}
	for r := 0; r < 4; r++ {
		binary.LittleEndian.PutUint32(y[off+r*stride:], t)
	}
}

// predictH4 repeats each row's left neighbour, or 128 without one,
// across the row.
func predictH4(y []uint8, off, stride int, hasLeft bool) {
	for r := 0; r < 4; r++ {
		o, t := off+r*stride, uint32(0x80808080)
		if hasLeft {
			t = uint32(y[o-1]) * 0x01010101
		}
		binary.LittleEndian.PutUint32(y[o:], t)
	}
}

// predictDC4 fills the block with the rounded mean of the available top
// row and left column, or 128 without either.
func predictDC4(y []uint8, off, stride int, hasLeft, hasTop bool) {
	var sum, n uint32
	if hasTop {
		t := binary.LittleEndian.Uint32(y[off-stride:])
		sum += t&0xff + t>>8&0xff + t>>16&0xff + t>>24
		n += 4
	}
	if hasLeft {
		for r := 0; r < 4; r++ {
			sum += uint32(y[off+r*stride-1])
		}
		n += 4
	}
	dc := uint32(128)
	if n > 0 {
		dc = (sum + n/2) >> (n/4 + 1) // (sum + n/2) / n for n = 4 or 8
	}
	for r := 0; r < 4; r++ {
		binary.LittleEndian.PutUint32(y[off+r*stride:], dc*0x01010101)
	}
}

// MV is a full-pel motion vector.
type MV struct{ X, Y int }

// PredictInter4 fills a 4x4 luma prediction for block (bx, by) by motion
// compensation from the reference frame at displacement mv (full-pel, with
// edge extension).
func PredictInter4(ref *Frame, bx, by int, mv MV) Block4 {
	var pred Block4
	x0, y0 := bx+mv.X, by+mv.Y
	if x0 >= 0 && y0 >= 0 && x0+4 <= ref.Width && y0+4 <= ref.Height {
		// Interior block: every sample is in-frame, so YAt's edge clamping
		// is the identity and the rows index the plane directly.
		w := ref.Width
		for r := 0; r < 4; r++ {
			row := ref.Y[(y0+r)*w+x0:]
			pred[r*4] = int32(row[0])
			pred[r*4+1] = int32(row[1])
			pred[r*4+2] = int32(row[2])
			pred[r*4+3] = int32(row[3])
		}
		return pred
	}
	// Edge extension: clamp the four source columns once, then each row.
	w, h := ref.Width, ref.Height
	var xs [4]int
	for c := range xs {
		xs[c] = min(max(x0+c, 0), w-1)
	}
	for r := 0; r < 4; r++ {
		row := ref.Y[min(max(y0+r, 0), h-1)*w:]
		pred[r*4] = int32(row[xs[0]])
		pred[r*4+1] = int32(row[xs[1]])
		pred[r*4+2] = int32(row[xs[2]])
		pred[r*4+3] = int32(row[xs[3]])
	}
	return pred
}

// blockResidual returns original minus prediction for block (bx, by).
func blockResidual(orig *Frame, bx, by int, pred Block4) Block4 {
	var res Block4
	for r := 0; r < 4; r++ {
		for c := 0; c < 4; c++ {
			res[r*4+c] = int32(orig.YAt(bx+c, by+r)) - pred[r*4+c]
		}
	}
	return res
}

// reconstructBlock writes clamp(pred + residual) into frame f at (bx, by).
func reconstructBlock(f *Frame, bx, by int, pred, residual Block4) {
	if bx >= 0 && by >= 0 && bx+4 <= f.Width && by+4 <= f.Height {
		w := f.Width
		for r := 0; r < 4; r++ {
			row := f.Y[(by+r)*w+bx:]
			row[0] = clampU8(pred[r*4] + residual[r*4])
			row[1] = clampU8(pred[r*4+1] + residual[r*4+1])
			row[2] = clampU8(pred[r*4+2] + residual[r*4+2])
			row[3] = clampU8(pred[r*4+3] + residual[r*4+3])
		}
		return
	}
	for r := 0; r < 4; r++ {
		for c := 0; c < 4; c++ {
			f.SetY(bx+c, by+r, clampU8(pred[r*4+c]+residual[r*4+c]))
		}
	}
}

// sadBlock returns the sum of absolute differences between the original
// 4x4 block at (bx, by) and the reference block displaced by mv.
func sadBlock(orig, ref *Frame, bx, by int, mv MV) int {
	x0, y0 := bx+mv.X, by+mv.Y
	if bx >= 0 && by >= 0 && bx+4 <= orig.Width && by+4 <= orig.Height &&
		x0 >= 0 && y0 >= 0 && x0+4 <= ref.Width && y0+4 <= ref.Height {
		// Interior case (the bulk of motion search): every sample is
		// in-frame, so the packed absolute-difference kernel reads the
		// plane rows directly. Integer sums are exact in any order.
		return int(simd.SAD4x4(orig.Y[by*orig.Width+bx:], orig.Width,
			ref.Y[y0*ref.Width+x0:], ref.Width))
	}
	var sad int
	for r := 0; r < 4; r++ {
		for c := 0; c < 4; c++ {
			d := int(orig.YAt(bx+c, by+r)) - int(ref.YAt(bx+c+mv.X, by+r+mv.Y))
			if d < 0 {
				d = -d
			}
			sad += d
		}
	}
	return sad
}

// searchMV finds the best full-pel motion vector for the 16x16 macroblock
// at (mbx, mby) within +-window, by 16x16 SAD over the luma plane.
func searchMV(orig, ref *Frame, mbx, mby, window int) MV {
	best := MV{}
	bestSAD := 1 << 30
	for dy := -window; dy <= window; dy++ {
		for dx := -window; dx <= window; dx++ {
			var sad int
			for r := 0; r < 16; r += 4 {
				for c := 0; c < 16; c += 4 {
					sad += sadBlock(orig, ref, mbx*16+c, mby*16+r, MV{dx, dy})
				}
				if sad >= bestSAD {
					break
				}
			}
			if sad < bestSAD {
				bestSAD = sad
				best = MV{dx, dy}
			}
		}
	}
	return best
}
