package h264

import (
	"fmt"
	"math"
	"math/rand"
)

// VideoConfig parameterizes the synthetic test-sequence generator used in
// place of the paper's (unavailable) visual-search-task video.
type VideoConfig struct {
	Width, Height int
	Frames        int
	// MotionSpeed scales foreground object velocity in pixels per frame.
	MotionSpeed float64
	// PanSpeed is the background pan speed in pixels per frame (0 keeps
	// the background static, as in screen-captured content).
	PanSpeed float64
	// Detail in [0,1] scales texture contrast (drives residual size).
	Detail float64
	// SceneChangeEvery inserts a content change every N frames (0 = never),
	// creating bursts of large residuals like real content cuts.
	SceneChangeEvery int
	// Noise is per-pixel uniform noise amplitude in gray levels.
	Noise float64
	// MoveFrames/PauseFrames modulate foreground activity: objects move
	// for MoveFrames frames, then hold still for PauseFrames frames,
	// cycling. Zero values disable pausing. Screen-like content (the
	// paper's visual-search video) alternates bursts of change with
	// near-static spans, which is what makes some inter frames small
	// enough for the Input Selector to drop.
	MoveFrames, PauseFrames int
	// Objects is the number of moving foreground objects (default 3 when
	// zero).
	Objects int
	Seed    int64
}

// DefaultVideoConfig returns a QCIF-like 176x144 moving-texture sequence.
func DefaultVideoConfig(frames int) VideoConfig {
	return VideoConfig{
		Width: 176, Height: 144, Frames: frames,
		MotionSpeed: 1.5, PanSpeed: 1.5, Detail: 0.6, SceneChangeEvery: 0, Noise: 1.0, Seed: 1,
	}
}

// GenerateVideo synthesizes a deterministic test sequence: a panning
// smooth-texture background (sinusoidal plateaus, friendly to motion
// estimation) with a few moving high-contrast objects and light noise.
func GenerateVideo(cfg VideoConfig) ([]*Frame, error) {
	if cfg.Frames <= 0 {
		return nil, fmt.Errorf("h264: video needs at least one frame")
	}
	if _, err := NewFrame(cfg.Width, cfg.Height); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	// Moving objects: position, velocity, size, brightness.
	type obj struct {
		x, y, vx, vy float64
		size         int
		lum          uint8
	}
	nObjs := cfg.Objects
	if nObjs <= 0 {
		nObjs = 3
	}
	objs := make([]obj, nObjs)
	for i := range objs {
		objs[i] = obj{
			x:    rng.Float64() * float64(cfg.Width),
			y:    rng.Float64() * float64(cfg.Height),
			vx:   (rng.Float64()*2 - 1) * cfg.MotionSpeed * 2,
			vy:   (rng.Float64()*2 - 1) * cfg.MotionSpeed * 2,
			size: 8 + rng.Intn(16),
			lum:  uint8(64 + rng.Intn(128)),
		}
	}
	phase := 0.0
	out := make([]*Frame, 0, cfg.Frames)
	for n := 0; n < cfg.Frames; n++ {
		if cfg.SceneChangeEvery > 0 && n > 0 && n%cfg.SceneChangeEvery == 0 {
			phase += math.Pi / 3 // abrupt background shift
		}
		f, err := NewFrame(cfg.Width, cfg.Height)
		if err != nil {
			return nil, err
		}
		panX := cfg.PanSpeed * float64(n)
		for y := 0; y < cfg.Height; y++ {
			for x := 0; x < cfg.Width; x++ {
				fx := (float64(x) + panX) / 32
				fy := float64(y) / 32
				v := 128 + cfg.Detail*(60*math.Sin(fx+phase)+40*math.Sin(fy*1.3+phase/2))
				v += cfg.Noise * (rng.Float64()*2 - 1)
				f.Y[y*cfg.Width+x] = clampU8(int32(math.Round(v)))
			}
		}
		moving := true
		if cycle := cfg.MoveFrames + cfg.PauseFrames; cfg.PauseFrames > 0 && cycle > 0 {
			moving = n%cycle < cfg.MoveFrames
		}
		for i := range objs {
			o := &objs[i]
			for dy := 0; dy < o.size; dy++ {
				for dx := 0; dx < o.size; dx++ {
					f.SetY(int(o.x)+dx, int(o.y)+dy, o.lum)
				}
			}
			if !moving {
				continue
			}
			o.x += o.vx
			o.y += o.vy
			if o.x < 0 || o.x > float64(cfg.Width-o.size) {
				o.vx = -o.vx
			}
			if o.y < 0 || o.y > float64(cfg.Height-o.size) {
				o.vy = -o.vy
			}
		}
		out = append(out, f)
	}
	return out, nil
}
