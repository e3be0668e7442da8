package h264

import (
	"fmt"
	"math/bits"
)

// CAVLC-style residual coding.
//
// coeff_token (TotalCoeff, TrailingOnes) uses the genuine spec VLC table
// for 0 <= nC < 2 (the dominant context in low-motion QCIF-class content);
// this model always codes with that table rather than switching tables on
// the predicted nC. Trailing-one signs are single bits; remaining levels
// use the genuine level_prefix/level_suffix scheme with adaptive
// suffixLength; total_zeros and run_before are coded with Exp-Golomb
// instead of the spec's per-count VLC tables. The stream stays fully
// self-consistent (encode/decode round-trips bit-exactly) and preserves
// the size structure — small residuals cost few bits — which is what the
// Input Selector's S_th statistics and the power model consume.

// coeffTokenCode is (length, bits) for the nC<2 coeff_token table,
// indexed [totalCoeff][trailingOnes]. From ITU-T H.264 table 9-5.
type vlcCode struct {
	length int
	bits   uint32
}

var coeffTokenNC0 = [17][4]vlcCode{
	{{1, 1}, {0, 0}, {0, 0}, {0, 0}},       // TC=0
	{{6, 0x05}, {2, 0x01}, {0, 0}, {0, 0}}, // TC=1: T1s=0,1
	{{8, 0x07}, {6, 0x04}, {3, 0x01}, {0, 0}},
	{{9, 0x07}, {8, 0x06}, {7, 0x05}, {5, 0x03}},
	{{10, 0x07}, {9, 0x06}, {8, 0x05}, {6, 0x03}},
	{{11, 0x07}, {10, 0x06}, {9, 0x05}, {7, 0x04}},
	{{13, 0x0F}, {11, 0x06}, {10, 0x05}, {8, 0x04}},
	{{13, 0x0B}, {13, 0x0E}, {11, 0x05}, {9, 0x04}},
	{{13, 0x08}, {13, 0x0A}, {13, 0x0D}, {10, 0x04}},
	{{14, 0x0F}, {14, 0x0E}, {13, 0x09}, {11, 0x04}},
	{{14, 0x0B}, {14, 0x0A}, {14, 0x0D}, {13, 0x0C}},
	{{15, 0x0F}, {15, 0x0E}, {14, 0x09}, {14, 0x0C}},
	{{15, 0x0B}, {15, 0x0A}, {15, 0x0D}, {14, 0x08}},
	{{16, 0x0F}, {15, 0x01}, {15, 0x09}, {15, 0x0C}},
	{{16, 0x0B}, {16, 0x0E}, {16, 0x0D}, {15, 0x08}},
	{{16, 0x07}, {16, 0x0A}, {16, 0x09}, {16, 0x0C}},
	{{16, 0x04}, {16, 0x06}, {16, 0x05}, {16, 0x08}},
}

// coeffTokenLUT decodes coeff_token with a single 16-bit peek: the table's
// longest code is 16 bits, so the leading 16 bits of the stream determine
// (TotalCoeff, TrailingOnes, length) uniquely. Entries pack
// tc<<7 | t1<<5 | length; 0 means no code has that prefix. Built by init
// from coeffTokenNC0, so the walking decoder and the LUT cannot drift.
var coeffTokenLUT [1 << 16]uint16

func init() {
	for tc := 0; tc <= 16; tc++ {
		for t1 := 0; t1 <= 3 && t1 <= tc; t1++ {
			c := coeffTokenNC0[tc][t1]
			if c.length == 0 && tc+t1 > 0 {
				continue
			}
			base := c.bits << uint(16-c.length)
			packed := uint16(tc)<<7 | uint16(t1)<<5 | uint16(c.length)
			for s := uint32(0); s < 1<<uint(16-c.length); s++ {
				coeffTokenLUT[base|s] = packed
			}
		}
	}
}

// EncodeResidual writes one 4x4 residual block to w and returns the number
// of coded bits.
func EncodeResidual(w *BitWriter, blk Block4) int {
	scan := blk.ZigZag()
	return encodeResidualScan(w, &scan)
}

// encodeResidualScan codes zig-zag-ordered coefficients without
// allocating; it is the form the encoder's fused transform path feeds
// directly. Bit output is identical to the original slice-based coder.
func encodeResidualScan(w *BitWriter, scan *[16]int32) int {
	startBits := w.Len()
	// Nonzero coefficients in reverse scan order (high frequency first).
	var levels [16]int32
	var positions [16]int
	totalCoeff := 0
	for i := 15; i >= 0; i-- {
		if scan[i] != 0 {
			levels[totalCoeff] = scan[i]
			positions[totalCoeff] = i
			totalCoeff++
		}
	}
	// run_before of level k = zeros between it and the next lower
	// coefficient in scan order (the spec's definition).
	var runs [16]int
	for k := 0; k < totalCoeff-1; k++ {
		runs[k] = positions[k] - positions[k+1] - 1
	}
	if totalCoeff > 0 {
		runs[totalCoeff-1] = positions[totalCoeff-1] // zeros below the lowest
	}
	lastNZ := -1
	if totalCoeff > 0 {
		lastNZ = positions[0]
	}
	// Trailing ones: up to 3 leading (in reverse order) coefficients with
	// |level| == 1.
	trailingOnes := 0
	for trailingOnes < 3 && trailingOnes < totalCoeff &&
		(levels[trailingOnes] == 1 || levels[trailingOnes] == -1) {
		trailingOnes++
	}
	code := coeffTokenNC0[totalCoeff][trailingOnes]
	w.WriteBits(uint64(code.bits), code.length)
	if totalCoeff == 0 {
		return w.Len() - startBits
	}
	// Trailing one signs, reverse scan order: 0 = positive.
	for i := 0; i < trailingOnes; i++ {
		if levels[i] < 0 {
			w.WriteBit(1)
		} else {
			w.WriteBit(0)
		}
	}
	// Remaining levels with adaptive suffix length.
	suffixLength := 0
	if totalCoeff > 10 && trailingOnes < 3 {
		suffixLength = 1
	}
	for i := trailingOnes; i < totalCoeff; i++ {
		level := levels[i]
		levelCode := levelToCode(level, i == trailingOnes && trailingOnes < 3)
		writeLevel(w, levelCode, suffixLength)
		if suffixLength == 0 {
			suffixLength = 1
		}
		abs := level
		if abs < 0 {
			abs = -abs
		}
		if abs > (3<<(suffixLength-1)) && suffixLength < 6 {
			suffixLength++
		}
	}
	// total_zeros: zeros among scan[0..lastNZ] (Exp-Golomb here).
	totalZeros := lastNZ + 1 - totalCoeff
	w.WriteUE(uint32(totalZeros))
	// run_before per coefficient (reverse order, skip the last), while
	// zeros remain.
	zerosLeft := totalZeros
	for i := 0; i < totalCoeff-1 && zerosLeft > 0; i++ {
		rb := runs[i]
		w.WriteUE(uint32(rb))
		zerosLeft -= rb
	}
	return w.Len() - startBits
}

// levelToCode maps a signed level to the spec's level code. When firstNon1
// is set (first non-trailing-one level with T1s < 3), the magnitude is
// reduced by 1 before mapping.
func levelToCode(level int32, firstNon1 bool) int32 {
	abs := level
	if abs < 0 {
		abs = -abs
	}
	if firstNon1 {
		abs--
	}
	if level > 0 {
		return 2 * (abs - 1)
	}
	return 2*(abs-1) + 1
}

// codeToLevel inverts levelToCode.
func codeToLevel(code int32, firstNon1 bool) int32 {
	var abs int32
	var neg bool
	if code%2 == 0 {
		abs = code/2 + 1
	} else {
		abs = (code-1)/2 + 1
		neg = true
	}
	if firstNon1 {
		abs++
	}
	if neg {
		return -abs
	}
	return abs
}

// writeLevel emits level_prefix / level_suffix for a level code.
func writeLevel(w *BitWriter, levelCode int32, suffixLength int) {
	if suffixLength == 0 {
		// Unary below 14, escape at 14 (4-bit suffix), full escape at 15.
		if levelCode < 14 {
			w.WriteBits(0, int(levelCode))
			w.WriteBit(1)
			return
		}
		if levelCode < 30 {
			w.WriteBits(0, 14)
			w.WriteBit(1)
			w.WriteBits(uint64(levelCode-14), 4)
			return
		}
		w.WriteBits(0, 15)
		w.WriteBit(1)
		w.WriteBits(uint64(levelCode-30), 12)
		return
	}
	prefix := levelCode >> uint(suffixLength)
	if prefix < 15 {
		w.WriteBits(0, int(prefix))
		w.WriteBit(1)
		w.WriteBits(uint64(levelCode)&((1<<uint(suffixLength))-1), suffixLength)
		return
	}
	// Escape: prefix 15, 12-bit suffix.
	w.WriteBits(0, 15)
	w.WriteBit(1)
	w.WriteBits(uint64(levelCode-(15<<uint(suffixLength))), 12)
}

// readLevel decodes level_prefix / level_suffix into a level code. The
// prefix is the count of leading zeros of the reader's cache; a prefix
// past 15 or one that runs into the end of the stream takes the
// bit-at-a-time loop, which consumes exactly what the original decoder
// did before failing.
func readLevel(r *BitReader, suffixLength int) (int32, error) {
	if r.nbits < 16 {
		r.refill()
	}
	prefix := bits.LeadingZeros64(r.cache)
	if prefix < r.nbits && prefix <= 15 {
		r.skip(prefix + 1)
	} else {
		var err error
		if prefix, err = readLevelPrefixSlow(r); err != nil {
			return 0, err
		}
	}
	if suffixLength == 0 {
		switch {
		case prefix < 14:
			return int32(prefix), nil
		case prefix == 14:
			s, err := r.ReadBits(4)
			if err != nil {
				return 0, err
			}
			return 14 + int32(s), nil
		default:
			s, err := r.ReadBits(12)
			if err != nil {
				return 0, err
			}
			return 30 + int32(s), nil
		}
	}
	if prefix < 15 {
		s, err := r.ReadBits(suffixLength)
		if err != nil {
			return 0, err
		}
		return int32(prefix)<<uint(suffixLength) | int32(s), nil
	}
	s, err := r.ReadBits(12)
	if err != nil {
		return 0, err
	}
	return int32(15)<<uint(suffixLength) + int32(s), nil
}

// readLevelPrefixSlow reads level_prefix one bit at a time.
func readLevelPrefixSlow(r *BitReader) (int, error) {
	prefix := 0
	for {
		b, err := r.ReadBit()
		if err != nil {
			return 0, err
		}
		if b == 1 {
			return prefix, nil
		}
		prefix++
		if prefix > 15 {
			return 0, fmt.Errorf("%w: level prefix too long", ErrBitstream)
		}
	}
}

// DecodeResidual reads one 4x4 residual block from r and returns it with
// the number of bits consumed.
func DecodeResidual(r *BitReader) (Block4, int, error) {
	var scan [16]int32
	start := r.BitsRead()
	if _, err := decodeCodedResidual(r, &scan); err != nil {
		return Block4{}, 0, err
	}
	return FromZigZag(scan), r.BitsRead() - start, nil
}

// decodeCodedResidual reads one residual block into zig-zag order
// without allocating and returns its number of nonzero levels. Bit
// consumption and errors are identical to the original slice-based
// decoder. A block without levels is the single coeff_token bit 1: it
// is consumed and scan is left as it was, so the macroblock decoders
// check a cached 1 themselves (the cache's bits past nbits are zero, so
// a set top bit is a cached 1) and call this only for a block that may
// have levels. A block with levels overwrites all of scan.
func decodeCodedResidual(r *BitReader, scan *[16]int32) (nz int, err error) {
	totalCoeff, trailingOnes, err := readCoeffToken(r)
	if err != nil {
		return 0, err
	}
	if totalCoeff == 0 {
		return 0, nil
	}
	var levels [16]int32 // reverse scan order
	if trailingOnes > 0 {
		// One sign bit per trailing one, first level first: 1 = negative.
		signs, err := r.ReadBits(trailingOnes)
		if err != nil {
			return 0, err
		}
		for i := 0; i < trailingOnes; i++ {
			levels[i] = 1 - 2*int32(signs>>uint(trailingOnes-1-i)&1)
		}
	}
	suffixLength := 0
	if totalCoeff > 10 && trailingOnes < 3 {
		suffixLength = 1
	}
	for i := trailingOnes; i < totalCoeff; i++ {
		code, err := readLevel(r, suffixLength)
		if err != nil {
			return 0, err
		}
		level := codeToLevel(code, i == trailingOnes && trailingOnes < 3)
		levels[i] = level
		if suffixLength == 0 {
			suffixLength = 1
		}
		abs := level
		if abs < 0 {
			abs = -abs
		}
		if abs > (3<<(suffixLength-1)) && suffixLength < 6 {
			suffixLength++
		}
	}
	tz, err := r.ReadUE()
	if err != nil {
		return 0, err
	}
	totalZeros := int(tz)
	if totalCoeff+totalZeros > 16 {
		return 0, fmt.Errorf("%w: coeff+zeros %d exceeds block", ErrBitstream, totalCoeff+totalZeros)
	}
	var runs [16]int
	zerosLeft := totalZeros
	for i := 0; i < totalCoeff-1 && zerosLeft > 0; i++ {
		rb, err := r.ReadUE()
		if err != nil {
			return 0, err
		}
		if int(rb) > zerosLeft {
			return 0, fmt.Errorf("%w: run_before %d exceeds zeros left %d", ErrBitstream, rb, zerosLeft)
		}
		runs[i] = int(rb)
		zerosLeft -= int(rb)
	}
	runs[totalCoeff-1] = zerosLeft
	// Rebuild the scan: place levels from the highest position downward.
	*scan = [16]int32{}
	pos := totalCoeff + totalZeros - 1
	for i := 0; i < totalCoeff; i++ {
		if pos < 0 || pos > 15 {
			return 0, fmt.Errorf("%w: scan position %d", ErrBitstream, pos)
		}
		scan[pos] = levels[i]
		pos -= 1 + runs[i]
	}
	return totalCoeff, nil
}

// readCoeffToken decodes the nC<2 coeff_token. The fast path peeks 16 bits
// and resolves the token from coeffTokenLUT in one lookup; when fewer than
// 16 bits remain (end of stream) it falls back to the bit-at-a-time table
// walk, which consumes exactly the bits the original decoder did before
// reporting truncation.
func readCoeffToken(r *BitReader) (totalCoeff, trailingOnes int, err error) {
	if peek, n := r.peek16(); n == 16 {
		e := coeffTokenLUT[peek]
		if e == 0 {
			// No 16-bit prefix matches any code: the walking decoder would
			// consume all 17 probe bits before failing, so mirror it.
			return readCoeffTokenSlow(r)
		}
		r.skip(int(e & 31))
		return int(e >> 7), int(e >> 5 & 3), nil
	}
	return readCoeffTokenSlow(r)
}

// readCoeffTokenSlow walks the code table one bit at a time (the original
// decoder); kept for truncated streams and as the LUT's reference.
func readCoeffTokenSlow(r *BitReader) (totalCoeff, trailingOnes int, err error) {
	var bits uint32
	var length int
	for length < 17 {
		b, err := r.ReadBit()
		if err != nil {
			return 0, 0, err
		}
		bits = bits<<1 | uint32(b)
		length++
		for tc := 0; tc <= 16; tc++ {
			for t1 := 0; t1 <= 3 && t1 <= tc; t1++ {
				c := coeffTokenNC0[tc][t1]
				if c.length == length && c.bits == bits {
					return tc, t1, nil
				}
			}
		}
	}
	return 0, 0, fmt.Errorf("%w: unknown coeff_token", ErrBitstream)
}
