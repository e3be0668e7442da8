package h264

// Reference implementations of the pixel kernels, kept verbatim from
// before the simd rewrite (the bits_ref_test.go pattern): straightforward
// scalar code whose only job is to be obviously correct. The
// differential and fuzz tests drive sadBlock and the deblocking filter
// against these oracles with the vector backend both enabled and
// disabled.

// sadBlockRef is the historical clamped SAD loop; for interior blocks
// the clamping accessors are the identity, so it covers both of
// sadBlock's branches.
func sadBlockRef(orig, ref *Frame, bx, by int, mv MV) int {
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

// filterEdgeLumaRef is the historical per-segment edge filter with the
// threshold comparisons inline.
func filterEdgeLumaRef(f *Frame, x, y int, vertical bool, bS, qp int, st *filterStats) {
	if bS <= 0 {
		return
	}
	alpha := alphaTable[clampQP(qp)]
	beta := betaTable[clampQP(qp)]
	Y := f.Y
	w := f.Width
	for i := 0; i < 4; i++ {
		var p0idx, step int
		if vertical {
			p0idx = (y+i)*w + x - 1
			step = 1
		} else {
			p0idx = (y-1)*w + x + i
			step = w
		}
		q0idx := p0idx + step
		var p, q [4]int32
		for d := 0; d < 4; d++ {
			p[d] = int32(Y[p0idx-d*step])
			q[d] = int32(Y[q0idx+d*step])
		}
		st.edgesExamined++
		if absI32(p[0]-q[0]) >= alpha || absI32(p[1]-p[0]) >= beta || absI32(q[1]-q[0]) >= beta {
			continue
		}
		st.edgesFiltered++
		if bS < 4 {
			tc0 := tc0Table[bS-1][clampQP(qp)]
			tc := tc0
			apFlag := absI32(p[2]-p[0]) < beta
			aqFlag := absI32(q[2]-q[0]) < beta
			if apFlag {
				tc++
			}
			if aqFlag {
				tc++
			}
			delta := clip3(-tc, tc, ((q[0]-p[0])<<2+(p[1]-q[1])+4)>>3)
			Y[p0idx] = clampU8(p[0] + delta)
			Y[q0idx] = clampU8(q[0] - delta)
			st.samplesTouch += 2
			if apFlag {
				dp := clip3(-tc0, tc0, (p[2]+((p[0]+q[0]+1)>>1)-(p[1]<<1))>>1)
				Y[p0idx-step] = clampU8(p[1] + dp)
				st.samplesTouch++
			}
			if aqFlag {
				dq := clip3(-tc0, tc0, (q[2]+((p[0]+q[0]+1)>>1)-(q[1]<<1))>>1)
				Y[q0idx+step] = clampU8(q[1] + dq)
				st.samplesTouch++
			}
		} else {
			// Strong filter (bS == 4).
			if absI32(p[0]-q[0]) < (alpha>>2)+2 {
				if absI32(p[2]-p[0]) < beta {
					Y[p0idx] = clampU8((p[2] + 2*p[1] + 2*p[0] + 2*q[0] + q[1] + 4) >> 3)
					Y[p0idx-step] = clampU8((p[2] + p[1] + p[0] + q[0] + 2) >> 2)
					Y[p0idx-2*step] = clampU8((2*p[3] + 3*p[2] + p[1] + p[0] + q[0] + 4) >> 3)
					st.samplesTouch += 3
				} else {
					Y[p0idx] = clampU8((2*p[1] + p[0] + q[1] + 2) >> 2)
					st.samplesTouch++
				}
				if absI32(q[2]-q[0]) < beta {
					Y[q0idx] = clampU8((q[2] + 2*q[1] + 2*q[0] + 2*p[0] + p[1] + 4) >> 3)
					Y[q0idx+step] = clampU8((q[2] + q[1] + q[0] + p[0] + 2) >> 2)
					Y[q0idx+2*step] = clampU8((2*q[3] + 3*q[2] + q[1] + q[0] + p[0] + 4) >> 3)
					st.samplesTouch += 3
				} else {
					Y[q0idx] = clampU8((2*q[1] + q[0] + p[1] + 2) >> 2)
					st.samplesTouch++
				}
			} else {
				Y[p0idx] = clampU8((2*p[1] + p[0] + q[1] + 2) >> 2)
				Y[q0idx] = clampU8((2*q[1] + q[0] + p[1] + 2) >> 2)
				st.samplesTouch += 2
			}
		}
	}
}

func absI32(v int32) int32 {
	if v < 0 {
		return -v
	}
	return v
}

func clip3(lo, hi, v int32) int32 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// deblockFrameRef is DeblockFrame driving the reference edge filter.
func deblockFrameRef(f *Frame, mbs []mbInfo, qp int) filterStats {
	var st filterStats
	mbw, mbh := f.MBWidth(), f.MBHeight()
	if len(mbs) != mbw*mbh {
		return st
	}
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
				bS := BoundaryStrength(nb, cur, mbEdge)
				for ey := 0; ey < 16; ey += 4 {
					st.edgesConsidered++
					filterEdgeLumaRef(f, x, my*16+ey, true, bS, qp, &st)
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
				bS := BoundaryStrength(nb, cur, mbEdge)
				for ex := 0; ex < 16; ex += 4 {
					st.edgesConsidered++
					filterEdgeLumaRef(f, mx*16+ex, y, false, bS, qp, &st)
				}
			}
		}
	}
	return st
}
