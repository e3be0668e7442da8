package nn

// Shared blocked matmul kernels for the batched training/inference paths.
//
// Every float kernel here is written under one hard constraint: for each
// output (or gradient) slot, the sequence of floating-point operations is
// exactly the sequence the per-example layer code performs. Accumulation
// over the reduction dimension always runs in ascending index order and
// every multiply-add is written as `acc += a*b` (the same expression shape
// as the scalar loops, so architectures that fuse multiply-adds fuse both
// paths identically). Blocking therefore only reorders *independent*
// slots — four output rows share one pass over the input row — which
// improves locality without changing a single bit of any result. The
// equivalence is locked down by Float64bits-exact tests in batch_test.go.
//
// Layout conventions match the layers: weight matrices are [out][in]
// row-major (so the forward product is X · Wᵀ), activations are [n][in]
// row-major with one example per row.

// gemmBiasNT computes y[r][o] = bias[o] + Σ_i x[r][i]·w[o][i] for an
// n×in activation block against an out×in weight matrix, writing the
// n×out result into y (fully overwritten). This is the Dense forward and
// the recurrent layers' input-side step matmul.
func gemmBiasNT(y, x, w, bias []float64, n, in, out int) {
	mtr.gemmCalls.Inc()
	mtr.gemmScalar.Inc() // manual register tiles, not the axpy4 backend
	r := 0
	// 2-row × 4-output register tiles: each weight load feeds two examples,
	// each input load feeds four outputs. Slots still accumulate
	// independently in ascending i order.
	for ; r+2 <= n; r += 2 {
		x0 := x[(r+0)*in : (r+1)*in]
		x1 := x[(r+1)*in : (r+2)*in]
		y0 := y[(r+0)*out : (r+1)*out]
		y1 := y[(r+1)*out : (r+2)*out]
		o := 0
		for ; o+4 <= out; o += 4 {
			w0 := w[(o+0)*in : (o+1)*in]
			w1 := w[(o+1)*in : (o+2)*in]
			w2 := w[(o+2)*in : (o+3)*in]
			w3 := w[(o+3)*in : (o+4)*in]
			s00, s01, s02, s03 := bias[o], bias[o+1], bias[o+2], bias[o+3]
			s10, s11, s12, s13 := bias[o], bias[o+1], bias[o+2], bias[o+3]
			for i, v0 := range x0 {
				v1 := x1[i]
				wa, wb, wc, wd := w0[i], w1[i], w2[i], w3[i]
				s00 += wa * v0
				s01 += wb * v0
				s02 += wc * v0
				s03 += wd * v0
				s10 += wa * v1
				s11 += wb * v1
				s12 += wc * v1
				s13 += wd * v1
			}
			y0[o], y0[o+1], y0[o+2], y0[o+3] = s00, s01, s02, s03
			y1[o], y1[o+1], y1[o+2], y1[o+3] = s10, s11, s12, s13
		}
		for ; o < out; o++ {
			wo := w[o*in : (o+1)*in]
			s0, s1 := bias[o], bias[o]
			for i, v0 := range x0 {
				s0 += wo[i] * v0
				s1 += wo[i] * x1[i]
			}
			y0[o], y1[o] = s0, s1
		}
	}
	for ; r < n; r++ {
		xr := x[r*in : (r+1)*in]
		yr := y[r*out : (r+1)*out]
		o := 0
		for ; o+8 <= out; o += 8 {
			w0 := w[(o+0)*in : (o+1)*in]
			w1 := w[(o+1)*in : (o+2)*in]
			w2 := w[(o+2)*in : (o+3)*in]
			w3 := w[(o+3)*in : (o+4)*in]
			w4 := w[(o+4)*in : (o+5)*in]
			w5 := w[(o+5)*in : (o+6)*in]
			w6 := w[(o+6)*in : (o+7)*in]
			w7 := w[(o+7)*in : (o+8)*in]
			s0, s1, s2, s3 := bias[o], bias[o+1], bias[o+2], bias[o+3]
			s4, s5, s6, s7 := bias[o+4], bias[o+5], bias[o+6], bias[o+7]
			for i, v := range xr {
				s0 += w0[i] * v
				s1 += w1[i] * v
				s2 += w2[i] * v
				s3 += w3[i] * v
				s4 += w4[i] * v
				s5 += w5[i] * v
				s6 += w6[i] * v
				s7 += w7[i] * v
			}
			yr[o], yr[o+1], yr[o+2], yr[o+3] = s0, s1, s2, s3
			yr[o+4], yr[o+5], yr[o+6], yr[o+7] = s4, s5, s6, s7
		}
		for ; o+4 <= out; o += 4 {
			w0 := w[(o+0)*in : (o+1)*in]
			w1 := w[(o+1)*in : (o+2)*in]
			w2 := w[(o+2)*in : (o+3)*in]
			w3 := w[(o+3)*in : (o+4)*in]
			s0, s1, s2, s3 := bias[o], bias[o+1], bias[o+2], bias[o+3]
			for i, v := range xr {
				s0 += w0[i] * v
				s1 += w1[i] * v
				s2 += w2[i] * v
				s3 += w3[i] * v
			}
			yr[o], yr[o+1], yr[o+2], yr[o+3] = s0, s1, s2, s3
		}
		for ; o < out; o++ {
			wo := w[o*in : (o+1)*in]
			s := bias[o]
			for i, v := range xr {
				s += wo[i] * v
			}
			yr[o] = s
		}
	}
}

// gemmDXAcc accumulates dx[r][i] += Σ_o g[r][o]·w[o][i] over an n×out
// gradient block and an out×in weight matrix. The o-reduction runs in
// ascending order per slot, which is exactly the per-example Dense
// backward order; blocking four output rows keeps the chained `s += g·w`
// adds for each slot in that same order (axpy4). dx is accumulated into,
// not overwritten; callers zero it first when that is the contract.
func gemmDXAcc(dx, g, w []float64, n, in, out int) {
	countGemm()
	for r := 0; r < n; r++ {
		gr := g[r*out : (r+1)*out]
		dxr := dx[r*in : (r+1)*in]
		o := 0
		for ; o+4 <= out; o += 4 {
			axpy4(dxr,
				w[(o+0)*in:(o+1)*in],
				w[(o+1)*in:(o+2)*in],
				w[(o+2)*in:(o+3)*in],
				w[(o+3)*in:(o+4)*in],
				gr[o], gr[o+1], gr[o+2], gr[o+3])
		}
		for ; o < out; o++ {
			gv := gr[o]
			wo := w[o*in : (o+1)*in]
			for i, wv := range wo {
				dxr[i] += gv * wv
			}
		}
	}
}

// gemmGradAcc accumulates parameter gradients for a dense layer over an
// n-example block: wGrad[o][i] += Σ_r g[r][o]·x[r][i] and
// bGrad[o] += Σ_r g[r][o], with the example reduction in ascending order
// per slot — the same order the per-example backward applies them.
// Examples are blocked eight (then four) at a time; the chained `s += g·x`
// updates per slot are the identical operation sequence, just kept in a
// register.
func gemmGradAcc(wGrad, bGrad, g, x []float64, n, in, out int) {
	countGemm()
	r := 0
	for ; r+8 <= n; r += 8 {
		g0 := g[(r+0)*out : (r+1)*out]
		g1 := g[(r+1)*out : (r+2)*out]
		g2 := g[(r+2)*out : (r+3)*out]
		g3 := g[(r+3)*out : (r+4)*out]
		g4 := g[(r+4)*out : (r+5)*out]
		g5 := g[(r+5)*out : (r+6)*out]
		g6 := g[(r+6)*out : (r+7)*out]
		g7 := g[(r+7)*out : (r+8)*out]
		x0 := x[(r+0)*in : (r+1)*in]
		x1 := x[(r+1)*in : (r+2)*in]
		x2 := x[(r+2)*in : (r+3)*in]
		x3 := x[(r+3)*in : (r+4)*in]
		x4 := x[(r+4)*in : (r+5)*in]
		x5 := x[(r+5)*in : (r+6)*in]
		x6 := x[(r+6)*in : (r+7)*in]
		x7 := x[(r+7)*in : (r+8)*in]
		for o := 0; o < out; o++ {
			ga, gb, gc, gd := g0[o], g1[o], g2[o], g3[o]
			ge, gf, gg, gh := g4[o], g5[o], g6[o], g7[o]
			b := bGrad[o]
			b += ga
			b += gb
			b += gc
			b += gd
			b += ge
			b += gf
			b += gg
			b += gh
			bGrad[o] = b
			// Two chained axpy4 passes keep the eight per-slot adds in
			// example order (the intermediate store is exact).
			row := wGrad[o*in : (o+1)*in]
			axpy4(row, x0, x1, x2, x3, ga, gb, gc, gd)
			axpy4(row, x4, x5, x6, x7, ge, gf, gg, gh)
		}
	}
	for ; r+4 <= n; r += 4 {
		g0 := g[(r+0)*out : (r+1)*out]
		g1 := g[(r+1)*out : (r+2)*out]
		g2 := g[(r+2)*out : (r+3)*out]
		g3 := g[(r+3)*out : (r+4)*out]
		x0 := x[(r+0)*in : (r+1)*in]
		x1 := x[(r+1)*in : (r+2)*in]
		x2 := x[(r+2)*in : (r+3)*in]
		x3 := x[(r+3)*in : (r+4)*in]
		for o := 0; o < out; o++ {
			ga, gb, gc, gd := g0[o], g1[o], g2[o], g3[o]
			b := bGrad[o]
			b += ga
			b += gb
			b += gc
			b += gd
			bGrad[o] = b
			axpy4(wGrad[o*in:(o+1)*in], x0, x1, x2, x3, ga, gb, gc, gd)
		}
	}
	for ; r < n; r++ {
		gr := g[r*out : (r+1)*out]
		xr := x[r*in : (r+1)*in]
		for o, gv := range gr {
			bGrad[o] += gv
			row := wGrad[o*in : (o+1)*in]
			for i := range row {
				row[i] += gv * xr[i]
			}
		}
	}
}

// gemmBiasT computes the same product as gemmBiasNT from a transposed
// weight matrix wt ([in][out] row-major): y[r][:] starts as bias and
// accumulates x[r][i]·wt[i][:] for i ascending. Per output slot that is
// bias first, then input contributions in ascending i order — the exact
// per-example chain (intermediate stores are exact) — while the inner
// axis is contiguous, so the axpy4 SIMD backend applies. Callers keep wt
// fresh via transposeInto; the cost is one weight-matrix copy per GEMM,
// amortized over the n batch rows.
// gemmRowBlock is the example-block height for gemmBiasT: the y block
// (gemmRowBlock×out rows) stays L1/L2-resident across the whole input
// sweep, so the weight matrix streams from memory once per block instead
// of once per example.
const gemmRowBlock = 16

func gemmBiasT(y, x, wt, bias []float64, n, in, out int) {
	countGemm()
	for rs := 0; rs < n; rs += gemmRowBlock {
		re := rs + gemmRowBlock
		if re > n {
			re = n
		}
		for r := rs; r < re; r++ {
			copy(y[r*out:(r+1)*out], bias)
		}
		i := 0
		for ; i+4 <= in; i += 4 {
			w0 := wt[(i+0)*out : (i+1)*out]
			w1 := wt[(i+1)*out : (i+2)*out]
			w2 := wt[(i+2)*out : (i+3)*out]
			w3 := wt[(i+3)*out : (i+4)*out]
			for r := rs; r < re; r++ {
				xr := x[r*in : (r+1)*in]
				axpy4(y[r*out:(r+1)*out], w0, w1, w2, w3,
					xr[i], xr[i+1], xr[i+2], xr[i+3])
			}
		}
		for ; i < in; i++ {
			wti := wt[i*out : (i+1)*out]
			for r := rs; r < re; r++ {
				v := x[r*in+i]
				yr := y[r*out : (r+1)*out]
				for o, wv := range wti {
					yr[o] += v * wv
				}
			}
		}
	}
}

// transposeInto writes the [out][in] weight matrix w into wt as
// [in][out] row-major, in 32×32 tiles so both sides stay cache-friendly.
// wt must have in*out elements.
func transposeInto(wt, w []float64, in, out int) {
	const tile = 32
	for o0 := 0; o0 < out; o0 += tile {
		o1 := o0 + tile
		if o1 > out {
			o1 = out
		}
		for i0 := 0; i0 < in; i0 += tile {
			i1 := i0 + tile
			if i1 > in {
				i1 = in
			}
			for o := o0; o < o1; o++ {
				row := w[o*in+i0 : o*in+i1]
				for k, v := range row {
					wt[(i0+k)*out+o] = v
				}
			}
		}
	}
}

// growF64 returns buf resized to length n, reallocating only when capacity
// is insufficient. Contents are unspecified. Reallocations are counted:
// a steady-state training loop must not grow scratch, so a climbing
// kernel.scratch_grows counter flags a shape or reuse regression.
func growF64(buf []float64, n int) []float64 {
	if cap(buf) < n {
		mtr.scratchGrows.Inc()
		return make([]float64, n)
	}
	return buf[:n]
}

// growI8 is growF64 for int8 scratch.
func growI8(buf []int8, n int) []int8 {
	if cap(buf) < n {
		mtr.scratchGrows.Inc()
		return make([]int8, n)
	}
	return buf[:n]
}

// growI32 is growF64 for int32 scratch.
func growI32(buf []int32, n int) []int32 {
	if cap(buf) < n {
		mtr.scratchGrows.Inc()
		return make([]int32, n)
	}
	return buf[:n]
}

// growBool is growF64 for bool scratch.
func growBool(buf []bool, n int) []bool {
	if cap(buf) < n {
		mtr.scratchGrows.Inc()
		return make([]bool, n)
	}
	return buf[:n]
}

// zeroF64 clears a float64 slice (compiles to memclr).
func zeroF64(xs []float64) {
	for i := range xs {
		xs[i] = 0
	}
}

// reshape points t at rows×cols (rows==0 meaning a rank-1 vector of cols),
// growing the backing array only when needed. Used for per-layer scratch
// tensors so steady-state training reuses one allocation per layer.
func (t *Tensor) reshape(rows, cols int) *Tensor {
	n := cols
	if rows > 0 {
		n = rows * cols
	}
	t.Data = growF64(t.Data, n)
	t.Rows, t.Cols = rows, cols
	return t
}
