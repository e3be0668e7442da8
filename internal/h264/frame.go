package h264

import (
	"fmt"
	"math"
)

// Frame is a YUV 4:2:0 picture. Luma is Width x Height; each chroma plane
// is half resolution in both dimensions. The codec codes luma only: the
// decoder never writes Cb or Cr, so decoded frames carry zero chroma.
type Frame struct {
	Width, Height int
	Y, Cb, Cr     []uint8
}

// NewFrame allocates a zeroed frame. Dimensions must be positive multiples
// of 16 (whole macroblocks).
func NewFrame(width, height int) (*Frame, error) {
	if width <= 0 || height <= 0 || width%16 != 0 || height%16 != 0 {
		return nil, fmt.Errorf("h264: frame %dx%d must be positive multiples of 16", width, height)
	}
	return &Frame{
		Width: width, Height: height,
		Y:  make([]uint8, width*height),
		Cb: make([]uint8, width*height/4),
		Cr: make([]uint8, width*height/4),
	}, nil
}

// Clone returns a deep copy.
func (f *Frame) Clone() *Frame {
	c := &Frame{Width: f.Width, Height: f.Height,
		Y:  make([]uint8, len(f.Y)),
		Cb: make([]uint8, len(f.Cb)),
		Cr: make([]uint8, len(f.Cr)),
	}
	copy(c.Y, f.Y)
	copy(c.Cb, f.Cb)
	copy(c.Cr, f.Cr)
	return c
}

// MBWidth returns the frame width in macroblocks.
func (f *Frame) MBWidth() int { return f.Width / 16 }

// MBHeight returns the frame height in macroblocks.
func (f *Frame) MBHeight() int { return f.Height / 16 }

// YAt returns the luma sample at (x, y), clamping coordinates to the frame
// (edge extension, as motion compensation requires).
func (f *Frame) YAt(x, y int) uint8 {
	if x < 0 {
		x = 0
	}
	if x >= f.Width {
		x = f.Width - 1
	}
	if y < 0 {
		y = 0
	}
	if y >= f.Height {
		y = f.Height - 1
	}
	return f.Y[y*f.Width+x]
}

// SetY stores a luma sample, ignoring out-of-frame coordinates.
func (f *Frame) SetY(x, y int, v uint8) {
	if x < 0 || x >= f.Width || y < 0 || y >= f.Height {
		return
	}
	f.Y[y*f.Width+x] = v
}

// clampU8 saturates an int32 to [0, 255]. Both out-of-range sides take
// one branch: ^(v>>31) is all zeros for a negative v and all ones for
// one above 255.
func clampU8(v int32) uint8 {
	if uint32(v) > 255 {
		return uint8(^(v >> 31))
	}
	return uint8(v)
}

// PSNR returns the luma peak signal-to-noise ratio between two frames in
// dB, +Inf for identical frames. Frames must share dimensions.
func PSNR(a, b *Frame) (float64, error) {
	if a.Width != b.Width || a.Height != b.Height {
		return 0, fmt.Errorf("h264: PSNR dimension mismatch %dx%d vs %dx%d", a.Width, a.Height, b.Width, b.Height)
	}
	var sse float64
	for i := range a.Y {
		d := float64(a.Y[i]) - float64(b.Y[i])
		sse += d * d
	}
	if sse == 0 {
		return math.Inf(1), nil
	}
	mse := sse / float64(len(a.Y))
	return 10 * math.Log10(255*255/mse), nil
}

// MeanPSNR averages PSNR over paired frame sequences, skipping infinite
// (identical) pairs unless all are identical, in which case +Inf.
func MeanPSNR(ref, out []*Frame) (float64, error) {
	if len(ref) != len(out) {
		return 0, fmt.Errorf("h264: sequence length mismatch %d vs %d", len(ref), len(out))
	}
	if len(ref) == 0 {
		return 0, fmt.Errorf("h264: empty sequences")
	}
	var sum float64
	var n int
	for i := range ref {
		p, err := PSNR(ref[i], out[i])
		if err != nil {
			return 0, err
		}
		if math.IsInf(p, 1) {
			continue
		}
		sum += p
		n++
	}
	if n == 0 {
		return math.Inf(1), nil
	}
	return sum / float64(n), nil
}
