package h264

import (
	"bytes"
	"math/rand"
	"testing"
)

// The fused scan-order kernels must be bit-identical to the composed
// public paths at every QP. These tests sweep all 52 QPs with random
// residuals/levels, including magnitudes that exercise int32 wrapping in
// the baked V<<shift dequant tables.

func TestTransformQuantizeScanMatchesComposed(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for qp := 0; qp <= 51; qp++ {
		for trial := 0; trial < 20; trial++ {
			var res Block4
			for i := range res {
				switch trial % 3 {
				case 0:
					res[i] = int32(rng.Intn(511) - 255) // pixel-range residual
				case 1:
					res[i] = int32(rng.Intn(7) - 3) // near-zero
				default:
					res[i] = int32(rng.Uint32()>>8) - 1<<23 // stress magnitudes
				}
			}
			want, err := TransformQuantize(res, qp)
			if err != nil {
				t.Fatal(err)
			}
			wantScan := want.ZigZag()
			var scan [16]int32
			nz, err := transformQuantizeScan(&res, qp, &scan)
			if err != nil {
				t.Fatal(err)
			}
			if scan != wantScan {
				t.Fatalf("qp %d: fused scan %v != composed %v", qp, scan, wantScan)
			}
			if nz != want.NonZeroCount() {
				t.Fatalf("qp %d: nz %d != %d", qp, nz, want.NonZeroCount())
			}
		}
	}
	if _, err := transformQuantizeScan(&Block4{}, 52, &[16]int32{}); err == nil {
		t.Fatal("expected QP range error")
	}
}

func TestIQITScanMatchesComposed(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for qp := 0; qp <= 51; qp++ {
		for trial := 0; trial < 20; trial++ {
			var scan [16]int32
			for i := range scan {
				if rng.Intn(3) == 0 {
					scan[i] = int32(rng.Intn(41) - 20)
				}
			}
			if trial == 0 {
				// Large levels: wrapping multiplies must match exactly.
				scan[0] = 1 << 28
				scan[5] = -(1 << 27)
			}
			want, err := IQIT(FromZigZag(scan), qp)
			if err != nil {
				t.Fatal(err)
			}
			var got Block4
			if err := iqitScanInto(&scan, qp, &got); err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("qp %d: fused IQIT %v != composed %v", qp, got, want)
			}
		}
	}
	if err := iqitScanInto(&[16]int32{}, -1, &Block4{}); err == nil {
		t.Fatal("expected QP range error")
	}
}

// TestAddIQIT4MatchesComposed holds the decoder's fused reconstruct to
// iqitScanInto plus a clamped add, at every QP, over random levels (a
// lone DC level among them, and magnitudes that wrap int32) added to
// random samples of a strided plane.
func TestAddIQIT4MatchesComposed(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	const stride = 7
	for qp := 0; qp <= 51; qp++ {
		for trial := 0; trial < 40; trial++ {
			var scan [16]int32
			switch trial % 4 {
			case 0: // DC only
				scan[0] = int32(rng.Intn(81) - 40)
			case 1: // wrapping magnitudes
				for i := range scan {
					scan[i] = int32(rng.Uint32())
				}
			default:
				for i := range scan {
					if rng.Intn(3) == 0 {
						scan[i] = int32(rng.Intn(41) - 20)
					}
				}
			}
			plane := make([]uint8, 3*stride+4)
			for i := range plane {
				plane[i] = uint8(rng.Intn(256))
			}
			want := append([]uint8(nil), plane...)
			var res Block4
			if err := iqitScanInto(&scan, qp, &res); err != nil {
				t.Fatal(err)
			}
			for r := 0; r < 4; r++ {
				for c := 0; c < 4; c++ {
					want[r*stride+c] = clampU8(int32(want[r*stride+c]) + res[r*4+c])
				}
			}
			dcOnly := scan[0] != 0
			for _, v := range scan[1:] {
				dcOnly = dcOnly && v == 0
			}
			addIQIT4(plane, stride, &scan, &dequantScan[qp], dcOnly)
			if !bytes.Equal(plane, want) {
				t.Fatalf("qp %d trial %d (dcOnly %v): fused %v, composed %v", qp, trial, dcOnly, plane, want)
			}
		}
	}
}

// TestCoeffTokenLUTMatchesWalk decodes every coeff_token code through both
// the 16-bit LUT path and the bit-at-a-time walk, over varied trailing
// padding, and requires identical results and positions.
func TestCoeffTokenLUTMatchesWalk(t *testing.T) {
	for tc := 0; tc <= 16; tc++ {
		for t1 := 0; t1 <= 3 && t1 <= tc; t1++ {
			c := coeffTokenNC0[tc][t1]
			if c.length == 0 && tc+t1 > 0 {
				continue
			}
			for pad := uint64(0); pad < 4; pad++ {
				w := NewBitWriter()
				w.WriteBits(uint64(c.bits), c.length)
				w.WriteBits(pad, 16) // enough tail for the 16-bit peek
				data := w.Bytes(true)

				fast := NewBitReader(data)
				gtc, gt1, err := readCoeffToken(fast)
				if err != nil {
					t.Fatalf("tc %d t1 %d: %v", tc, t1, err)
				}
				slow := NewBitReader(data)
				wtc, wt1, err := readCoeffTokenSlow(slow)
				if err != nil {
					t.Fatalf("tc %d t1 %d slow: %v", tc, t1, err)
				}
				if gtc != wtc || gt1 != wt1 || gtc != tc || gt1 != t1 {
					t.Fatalf("tc %d t1 %d: LUT (%d,%d), walk (%d,%d)", tc, t1, gtc, gt1, wtc, wt1)
				}
				if fast.BitsRead() != slow.BitsRead() {
					t.Fatalf("tc %d t1 %d: LUT consumed %d, walk %d", tc, t1, fast.BitsRead(), slow.BitsRead())
				}
			}
		}
	}
}

// TestCoeffTokenTruncated pins the end-of-stream behavior: with fewer than
// 16 bits available the decoder falls back to the walk, and both paths
// agree on success or failure.
func TestCoeffTokenTruncated(t *testing.T) {
	// TC=0 is the single bit '1': decodable from a 1-byte stream.
	r := NewBitReader([]byte{0x80})
	tc, t1, err := readCoeffToken(r)
	if err != nil || tc != 0 || t1 != 0 {
		t.Fatalf("short TC=0 decode: (%d,%d), %v", tc, t1, err)
	}
	// All-zero short stream: prefix runs off the end; must error like the walk.
	r = NewBitReader([]byte{0x00})
	if _, _, err := readCoeffToken(r); err == nil {
		t.Fatal("expected error on truncated all-zero token")
	}
	s := NewBitReader([]byte{0x00})
	if _, _, err := readCoeffTokenSlow(s); err == nil {
		t.Fatal("walk should also error")
	}
	if r.BitsRead() != s.BitsRead() {
		t.Fatalf("truncated consumption: fast %d, walk %d", r.BitsRead(), s.BitsRead())
	}
}
