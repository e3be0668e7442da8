package h264

import "testing"

// Benchmarks of the video hot path. The bitstream micro-benchmarks pair
// each word-level primitive with its retained scalar reference
// implementation (refBitReader/refBitWriter), so one bench run shows the
// fast-path ratio directly; the codec-level benchmarks (DecodeStream,
// EncodeFrame, DeblockFrame, IQIT) track ns/frame and steady-state
// allocations of the pooled decode path.

// benchStream encodes the 12-frame calibration clip once per benchmark
// process.
func benchStream(b *testing.B) ([]byte, []*Frame) {
	b.Helper()
	src, err := GenerateVideo(CalibrationVideoConfig(12))
	if err != nil {
		b.Fatal(err)
	}
	enc, err := NewEncoder(CalibrationEncoderConfig())
	if err != nil {
		b.Fatal(err)
	}
	stream, _, err := enc.EncodeSequence(src)
	if err != nil {
		b.Fatal(err)
	}
	return stream, src
}

// ueCorpus is a mixed-magnitude Exp-Golomb value set shaped like slice
// syntax: mostly tiny codes with an occasional long one.
func ueCorpus() []uint32 {
	vals := make([]uint32, 0, 4096)
	x := uint32(2463534242)
	for i := 0; i < 4096; i++ {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		switch {
		case i%7 == 0:
			vals = append(vals, x%1024)
		case i%29 == 0:
			vals = append(vals, x) // long codes
		default:
			vals = append(vals, x%8)
		}
	}
	return vals
}

func BenchmarkReadUE(b *testing.B) {
	vals := ueCorpus()
	w := NewBitWriter()
	for _, v := range vals {
		w.WriteUE(v)
	}
	data := w.Bytes(true)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := NewBitReader(data)
		for range vals {
			if _, err := r.ReadUE(); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkReadBits(b *testing.B) {
	data := make([]byte, 4096)
	for i := range data {
		data[i] = byte(i * 131)
	}
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := NewBitReader(data)
		// 11-bit reads: always straddling byte boundaries.
		for r.Remaining() >= 11 {
			if _, err := r.ReadBits(11); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkWriteUE measures steady-state Exp-Golomb encoding: the writer
// is primed once and recycled via Reset(Take()), so the loop measures
// the bit-packing itself (0 allocs/op), not buffer growth.
func BenchmarkWriteUE(b *testing.B) {
	vals := ueCorpus()
	w := NewBitWriter()
	var buf []byte
	prime := func() {
		w.Reset(buf)
		for _, v := range vals {
			w.WriteUE(v)
		}
		if w.Len() == 0 {
			b.Fatal("empty writer")
		}
		buf = w.Take()
	}
	prime()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		prime()
	}
}

// BenchmarkWriteBits measures steady-state fixed-width packing with the
// same primed Reset(Take()) recycling (0 allocs/op).
func BenchmarkWriteBits(b *testing.B) {
	w := NewBitWriter()
	var buf []byte
	prime := func() {
		w.Reset(buf)
		for j := 0; j < 4096; j++ {
			w.WriteBits(uint64(j), 11)
		}
		if w.Len() != 4096*11 {
			b.Fatal("bit count")
		}
		buf = w.Take()
	}
	prime()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		prime()
	}
}

func BenchmarkDecodeStream(b *testing.B) {
	stream, src := benchStream(b)
	frames := len(src)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dec := NewDecoder()
		out, err := dec.DecodeStream(stream)
		if err != nil {
			b.Fatal(err)
		}
		if len(out) != frames {
			b.Fatalf("%d frames, want %d", len(out), frames)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*frames), "ns/frame")
}

// BenchmarkDecodeStreamPooled is the steady-state decode loop a fleet
// shard runs: one decoder, one FramePool, the output slice recycled, every
// frame returned to the pool. Allocations must be zero per op.
func BenchmarkDecodeStreamPooled(b *testing.B) {
	stream, src := benchStream(b)
	frames := len(src)
	dec := NewDecoder()
	pool := NewFramePool()
	dec.SetPool(pool)
	out, err := dec.DecodeStream(stream)
	if err != nil {
		b.Fatal(err)
	}
	pool.PutAll(out)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dec.Reset()
		out, err = dec.DecodeStreamInto(stream, out[:0])
		if err != nil {
			b.Fatal(err)
		}
		if len(out) != frames {
			b.Fatalf("%d frames, want %d", len(out), frames)
		}
		pool.PutAll(out)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*frames), "ns/frame")
}

func BenchmarkEncodeFrame(b *testing.B) {
	src, err := GenerateVideo(CalibrationVideoConfig(2))
	if err != nil {
		b.Fatal(err)
	}
	enc, err := NewEncoder(CalibrationEncoderConfig())
	if err != nil {
		b.Fatal(err)
	}
	// Establish a reference so the measured frame is the common inter case.
	if _, err := enc.EncodeFrame(src[0]); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := enc.EncodeFrame(src[1]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDeblockFrame(b *testing.B) {
	stream, _ := benchStream(b)
	dec := NewDecoder()
	frames, err := dec.DecodeStream(stream)
	if err != nil {
		b.Fatal(err)
	}
	f := frames[len(frames)-1]
	mbw, mbh := f.MBWidth(), f.MBHeight()
	mbs := make([]mbInfo, mbw*mbh)
	for i := range mbs {
		mbs[i] = mbInfo{coded: i%3 == 0, intra: i%7 == 0, mv: MV{X: i % 3, Y: (i / 3) % 2}}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		DeblockFrame(f, mbs, 34)
	}
}

func BenchmarkIQIT(b *testing.B) {
	var blocks [64]Block4
	x := int32(1)
	for i := range blocks {
		for j := range blocks[i] {
			x = x*1103515245 + 12345
			if j == 0 || x%5 == 0 {
				blocks[i][j] = (x >> 16) % 12
			}
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		blk := &blocks[i&63]
		if _, err := IQIT(*blk, 34); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecodeResidualBlock(b *testing.B) {
	// A representative coded block round-tripped through the real encoder
	// path.
	var res Block4
	for i := range res {
		res[i] = int32((i*7)%23) - 11
	}
	z, err := TransformQuantize(res, 28)
	if err != nil {
		b.Fatal(err)
	}
	w := NewBitWriter()
	EncodeResidual(w, z)
	data := w.Bytes(true)
	nbits := w.Len()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := NewBitReader(data)
		_, bits, err := DecodeResidual(r)
		if err != nil {
			b.Fatal(err)
		}
		if bits != nbits {
			b.Fatalf("consumed %d bits, wrote %d", bits, nbits)
		}
	}
}

// BenchmarkSADBlock sweeps a motion-search-shaped set of SAD calls over
// two decoded frames: every 4x4 block of each macroblock against nine
// candidate vectors. The Ref variant runs the retained scalar loop on
// the same schedule, so the pair is a direct before/after for the
// PSADBW kernel.
func benchmarkSAD(b *testing.B, sad func(orig, ref *Frame, bx, by int, mv MV) int) {
	stream, _ := benchStream(b)
	dec := NewDecoder()
	frames, err := dec.DecodeStream(stream)
	if err != nil {
		b.Fatal(err)
	}
	orig, ref := frames[len(frames)-1], frames[len(frames)-2]
	mvs := []MV{{0, 0}, {1, 0}, {-1, 0}, {0, 1}, {0, -1}, {2, 2}, {-2, -2}, {3, -1}, {-1, 3}}
	b.ReportAllocs()
	b.ResetTimer()
	sink := 0
	for i := 0; i < b.N; i++ {
		for by := 0; by+4 <= orig.Height; by += 4 {
			for bx := 0; bx+4 <= orig.Width; bx += 4 {
				for _, mv := range mvs {
					sink += sad(orig, ref, bx, by, mv)
				}
			}
		}
	}
	if sink == -1 {
		b.Fatal("impossible")
	}
}

func BenchmarkSADBlock(b *testing.B)       { benchmarkSAD(b, sadBlock) }
func BenchmarkSADBlockScalar(b *testing.B) { benchmarkSAD(b, sadBlockRef) }

// BenchmarkDecodeIntraFrame decodes the probe clip's IDR slice alone
// (SPS, PPS and the one intra picture) on a pooled decoder with the
// deblocking filter off, so its time is the intra macroblock path:
// mode codes, intra prediction, residual parsing and reconstruction.
// Allocations must be zero per op.
func BenchmarkDecodeIntraFrame(b *testing.B) {
	streams, _ := probeClip(b, 6)
	units, err := SplitStream(streams[ModeStandard])
	if err != nil {
		b.Fatal(err)
	}
	var intra []NAL
	for _, u := range units {
		if u.Type != NALSliceNonIDR {
			intra = append(intra, u)
		}
	}
	stream, err := MarshalStream(intra)
	if err != nil {
		b.Fatal(err)
	}
	dec := NewDecoder()
	pool := NewFramePool()
	dec.SetPool(pool)
	out, err := probeDecode(dec, ModeDFOff, stream, 1, nil)
	if err != nil {
		b.Fatal(err)
	}
	pool.PutAll(out)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err = probeDecode(dec, ModeDFOff, stream, 1, out[:0])
		if err != nil {
			b.Fatal(err)
		}
		if len(out) != 1 {
			b.Fatalf("%d frames, want 1", len(out))
		}
		pool.PutAll(out)
	}
}

// BenchmarkProbeDecode decodes the fleet's 6-frame probe clip per
// operating mode exactly as a shard's video probe does: one pooled
// decoder, the output slice recycled, trailing deleted units concealed,
// every frame returned to the pool. Allocations must be zero per op.
func BenchmarkProbeDecode(b *testing.B) {
	streams, total := probeClip(b, 6)
	for _, mode := range Modes() {
		b.Run("mode="+mode.String(), func(b *testing.B) {
			dec := NewDecoder()
			pool := NewFramePool()
			dec.SetPool(pool)
			out, err := probeDecode(dec, mode, streams[mode], total, nil)
			if err != nil {
				b.Fatal(err)
			}
			pool.PutAll(out)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				out, err = probeDecode(dec, mode, streams[mode], total, out[:0])
				if err != nil {
					b.Fatal(err)
				}
				if len(out) != total {
					b.Fatalf("%d frames, want %d", len(out), total)
				}
				pool.PutAll(out)
			}
		})
	}
}
