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

func clampQP(qp int) int {
	if qp < 0 {
		return 0
	}
	if qp > 51 {
		return 51
	}
	return qp
}

// deblockParams are one frame's filter thresholds: alpha and beta at
// the frame's QP, and tc0 indexed by bS (0 and 4 unused).
type deblockParams struct {
	alpha, beta int32
	tc0         [5]int32
}

// DeblockFrame runs the in-loop filter over a reconstructed frame using
// per-macroblock decode info (row-major, MBWidth x MBHeight). It returns
// filter activity statistics for the power model.
//
// Per spec order, each macroblock's vertical edges are filtered, then
// its horizontal edges, edges every 4 samples; a macroblock-boundary edge
// gets mbEdge treatment, and every edge counts as four 4-sample edges.
// mbInfo is per macroblock, so the three internal edges of a direction
// share one bS, and one simd.DeblockMB call filters all of a direction's
// edges.
func DeblockFrame(f *Frame, mbs []mbInfo, qp int) filterStats {
	var st filterStats
	mbw, mbh := f.MBWidth(), f.MBHeight()
	if len(mbs) != mbw*mbh {
		return st
	}
	q := clampQP(qp)
	p := deblockParams{alpha: alphaTable[q], beta: betaTable[q],
		tc0: [5]int32{1: tc0Table[0][q], 2: tc0Table[1][q], 3: tc0Table[2][q]}}
	w := f.Width
	for my := 0; my < mbh; my++ {
		for mx := 0; mx < mbw; mx++ {
			cur := mbs[my*mbw+mx]
			inner := BoundaryStrength(cur, cur, false)
			st.edgesConsidered += 24
			// The frame's left and top borders are not edges.
			left, top := 0, 0
			if mx > 0 {
				left = BoundaryStrength(mbs[my*mbw+mx-1], cur, true)
				st.edgesConsidered += 4
			}
			if my > 0 {
				top = BoundaryStrength(mbs[(my-1)*mbw+mx], cur, true)
				st.edgesConsidered += 4
			}
			off := my*16*w + mx*16
			filterMB(f.Y, off, w, true, left, inner, &p, &st)
			filterMB(f.Y, off, w, false, top, inner, &p, &st)
		}
	}
	return st
}

// filterMB filters one direction of the macroblock at f.Y[off]: its
// boundary edge at strength edge0 (0 on the frame border) and its three
// internal edges at strength inner. Edges with bS > 0 count their sixteen
// segments as examined; the kernel's write masks give the segments
// filtered and the samples written. Every sample this touches is
// in-frame: the boundary edge runs only away from the frame border, so
// the rows above (or the columns left) that it reads exist.
func filterMB(y []uint8, off, stride int, vertical bool, edge0, inner int, p *deblockParams, st *filterStats) {
	var edges, strong uint8
	var tc0 [4]int32
	if edge0 > 0 {
		edges = 1
		if edge0 == 4 {
			strong = 1
		}
		tc0[0] = p.tc0[edge0]
	}
	if inner > 0 { // never 4: that needs a macroblock edge
		edges |= 0xe
		tc0[1], tc0[2], tc0[3] = p.tc0[inner], p.tc0[inner], p.tc0[inner]
	}
	if edges == 0 {
		return
	}
	st.edgesExamined += 16 * bits.OnesCount8(edges)
	if p.alpha == 0 || p.beta == 0 {
		// |d| >= 0 always fails a zero threshold: nothing can filter.
		return
	}
	m0, mP, mQ := simd.DeblockMB(y, off, stride, vertical, p.alpha, p.beta, &tc0, edges, strong)
	n := bits.OnesCount64(m0)
	st.edgesFiltered += n
	// Each filtered segment writes p0 and q0; mP/mQ flag the extra
	// one-sample (normal) or two-sample (strong, edge 0 only) side writes.
	extra := bits.OnesCount64(mP) + bits.OnesCount64(mQ)
	if strong != 0 {
		extra += bits.OnesCount16(uint16(mP)) + bits.OnesCount16(uint16(mQ))
	}
	st.samplesTouch += 2*n + extra
}
