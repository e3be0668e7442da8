package wire

import (
	"fmt"
	"testing"
)

// benchBatch is the hot frame: an ObserveBatch of n 24-dim observations,
// the fleet's default feature width. n = 1 is the one-observation-per-frame
// shape; n = 64 is the pipelined upload shape.
func benchBatch(n int) Frame {
	vals := make([]float64, 24)
	for i := range vals {
		vals[i] = float64(i) * 0.125
	}
	f := Frame{Type: ObserveBatch, Batch: make([]BatchObs, n)}
	for i := range f.Batch {
		f.Batch[i] = BatchObs{Seq: uint64(42 + i), At: int64(1_000_000 * (i + 1)), Vals: vals}
	}
	return f
}

// benchItems runs body as one sub-benchmark per batch size, reporting the
// per-observation share of each frame's cost next to ns/op.
func benchItems(b *testing.B, body func(b *testing.B, f Frame)) {
	for _, n := range []int{1, 64} {
		b.Run(fmt.Sprintf("items=%d", n), func(b *testing.B) {
			body(b, benchBatch(n))
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/obs")
		})
	}
}

func BenchmarkEncodeObserve(b *testing.B) {
	benchItems(b, func(b *testing.B, f Frame) {
		var buf []byte
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var err error
			buf, err = Append(buf[:0], &f)
			if err != nil {
				b.Fatal(err)
			}
		}
		b.SetBytes(int64(len(buf)))
	})
}

func BenchmarkDecodeObserve(b *testing.B) {
	benchItems(b, func(b *testing.B, f Frame) {
		buf, err := Append(nil, &f)
		if err != nil {
			b.Fatal(err)
		}
		var out Frame
		b.ReportAllocs()
		b.SetBytes(int64(len(buf)))
		for i := 0; i < b.N; i++ {
			if err := DecodeBody(&out, buf[lenSize:]); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkSplitObserve measures the full framing path: feed one encoded
// frame and pull it back out, steady state (no allocation).
func BenchmarkSplitObserve(b *testing.B) {
	benchItems(b, func(b *testing.B, f Frame) {
		buf, err := Append(nil, &f)
		if err != nil {
			b.Fatal(err)
		}
		var sp Splitter
		var out Frame
		b.ReportAllocs()
		b.SetBytes(int64(len(buf)))
		for i := 0; i < b.N; i++ {
			if err := sp.Feed(buf); err != nil {
				b.Fatal(err)
			}
			if ok, err := sp.Next(&out); !ok || err != nil {
				b.Fatalf("ok=%v err=%v", ok, err)
			}
		}
	})
}
