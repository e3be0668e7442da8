package simd

// fftStage2Ref is the portable FFTStage2 body, the oracle the FFT stage
// tests hold the vector kernel to.
func fftStage2Ref(x []complex128, w complex128) {
	nb := len(x) / 2
	for g := 0; g < nb; g++ {
		a := x[2*g]
		b := x[2*g+1] * w
		x[2*g] = a + b
		x[2*g+1] = a - b
	}
}
