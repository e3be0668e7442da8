package h264

import (
	"math/bits"

	"affectedge/internal/simd"
)

// Deblocking filter (in-loop filter of §8.7, modeled at 4x4-edge
// granularity on luma). Boundary strength follows the spec's decision
// ladder; the edge filter is the normal-filter (bS < 4) form plus the
// strong filter for bS == 4, with the spec's alpha/beta threshold tables.

// alphaTable and betaTable index by clamped indexA/indexB (= QP here,
// offsets zero), per ITU-T H.264 table 8-16.
var alphaTable = [52]int32{
	0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
	4, 4, 5, 6, 7, 8, 9, 10, 12, 13, 15, 17, 20, 22, 25, 28,
	32, 36, 40, 45, 50, 56, 63, 71, 80, 90, 101, 113, 127, 144,
	162, 182, 203, 226, 255, 255,
}

var betaTable = [52]int32{
	0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
	2, 2, 2, 3, 3, 3, 3, 4, 4, 4, 6, 6, 7, 7, 8, 8,
	9, 9, 10, 10, 11, 11, 12, 12, 13, 13, 14, 14, 15, 15,
	16, 16, 17, 17, 18, 18,
}

// tc0Table indexes [bS-1][indexA], per table 8-17 (luma).
var tc0Table = [3][52]int32{
	{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
		0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1, 1, 1, 1,
		1, 2, 2, 2, 2, 3, 3, 3, 4, 4, 4, 5, 6, 6, 7, 8,
		9, 10, 11, 13},
	{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
		0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1, 1, 1, 1,
		1, 2, 2, 2, 2, 3, 3, 3, 4, 4, 5, 6, 6, 7, 8, 9,
		10, 11, 13, 14},
	{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
		0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1, 1, 2, 2, 2,
		2, 3, 3, 3, 4, 4, 4, 5, 6, 6, 7, 8, 9, 10, 11, 13,
		14, 16, 18, 20},
}

// mbInfo is per-macroblock decode state the filter consults.
type mbInfo struct {
	intra bool
	coded bool // any nonzero residual
	mv    MV
}

// BoundaryStrength returns the spec's bS for an edge between blocks in
// macroblocks p and q (p left/above). mbEdge marks a macroblock boundary.
func BoundaryStrength(p, q mbInfo, mbEdge bool) int {
	switch {
	case (p.intra || q.intra) && mbEdge:
		return 4
	case p.intra || q.intra:
		return 3
	case p.coded || q.coded:
		return 2
	case abs(p.mv.X-q.mv.X) >= 1 || abs(p.mv.Y-q.mv.Y) >= 1:
		return 1
	default:
		return 0
	}
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

// filterStats counts deblocking activity for the power model.
type filterStats struct {
	edgesConsidered int // every 4-sample edge: bS computation
	edgesExamined   int // segments (sample lines) with bS > 0: threshold evaluation
	edgesFiltered   int // segments that passed thresholds and were filtered
	samplesTouch    int // samples written
}

// filterEdge16 filters one 16-sample luma macroblock edge: the vertical
// edge at column x covering rows y..y+15, or the horizontal edge at row y
// covering columns x..x+15. mbInfo is per macroblock, so one bS holds
// along the whole edge; bS > 0 and the thresholds decide, segment by
// segment (a sample row of a vertical edge, a column of a horizontal
// one), whether filtering occurs.
//
// Every sample this touches is in-frame by construction: DeblockFrame
// only emits vertical edges with 4 <= x <= width-4 and horizontal edges
// with 4 <= y <= height-4, so the four samples on each side sit inside
// the plane, and the frame width (a multiple of 16) is the stride.
//
// The whole edge — threshold decisions and tap arithmetic for all
// sixteen segments — is evaluated by one simd.DeblockEdge16 call, which
// is bit-identical to the spec's sequential per-segment filter: integer
// taps are exact, and a segment's writes stay on its own row (vertical)
// or column (horizontal), never feeding another segment's reads. The
// returned write masks reproduce the per-segment filter statistics.
// The caller skips edges with bS == 0.
func filterEdge16(f *Frame, x, y int, vertical bool, bS, qp int, st *filterStats) {
	alpha := alphaTable[clampQP(qp)]
	beta := betaTable[clampQP(qp)]
	st.edgesExamined += 16
	if alpha == 0 || beta == 0 {
		// |d| >= 0 always fails a zero threshold: nothing can filter.
		return
	}
	strong := bS >= 4
	var tc0 int32
	if !strong {
		tc0 = tc0Table[bS-1][clampQP(qp)]
	}
	w := f.Width
	var base int
	if vertical {
		base = y*w + x - 4
	} else {
		base = (y-4)*w + x
	}
	m0, mP, mQ := simd.DeblockEdge16(f.Y, base, w, vertical, alpha, beta, tc0, strong)
	n := bits.OnesCount16(m0)
	if n == 0 {
		return
	}
	st.edgesFiltered += n
	// Each filtered segment writes p0 and q0; mP/mQ flag the extra
	// one-sample (normal) or two-sample (strong) side writes.
	extra := 1
	if strong {
		extra = 2
	}
	st.samplesTouch += 2*n + extra*(bits.OnesCount16(mP)+bits.OnesCount16(mQ))
}

func clampQP(qp int) int {
	if qp < 0 {
		return 0
	}
	if qp > 51 {
		return 51
	}
	return qp
}

// DeblockFrame runs the in-loop filter over a reconstructed frame using
// per-macroblock decode info (row-major, MBWidth x MBHeight). It returns
// filter activity statistics for the power model.
func DeblockFrame(f *Frame, mbs []mbInfo, qp int) filterStats {
	var st filterStats
	mbw, mbh := f.MBWidth(), f.MBHeight()
	if len(mbs) != mbw*mbh {
		return st
	}
	// Vertical edges then horizontal edges, per spec order; edges every 4
	// samples, macroblock-boundary edges get mbEdge treatment. Each edge
	// spans the macroblock: one filterEdge16 call, counted as four
	// 4-sample edges.
	for my := 0; my < mbh; my++ {
		for mx := 0; mx < mbw; mx++ {
			cur := mbs[my*mbw+mx]
			for ex := 0; ex < 16; ex += 4 {
				x := mx*16 + ex
				if x == 0 {
					continue
				}
				nb := cur
				mbEdge := ex == 0
				if mbEdge {
					nb = mbs[my*mbw+mx-1]
				}
				st.edgesConsidered += 4
				if bS := BoundaryStrength(nb, cur, mbEdge); bS > 0 {
					filterEdge16(f, x, my*16, true, bS, qp, &st)
				}
			}
			for ey := 0; ey < 16; ey += 4 {
				y := my*16 + ey
				if y == 0 {
					continue
				}
				nb := cur
				mbEdge := ey == 0
				if mbEdge {
					nb = mbs[(my-1)*mbw+mx]
				}
				st.edgesConsidered += 4
				if bS := BoundaryStrength(nb, cur, mbEdge); bS > 0 {
					filterEdge16(f, mx*16, y, false, bS, qp, &st)
				}
			}
		}
	}
	return st
}
