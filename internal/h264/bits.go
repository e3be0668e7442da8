// Package h264 implements a self-consistent model of an H.264/AVC
// baseline-profile decoder and matching encoder, extended with the paper's
// affect-driven hardware: an Input Selector that drops small P/B NAL units
// (parameters S_th and f), a 128x16-bit Pre-store Buffer with a read/write
// handshake to the Circular Buffer, and a deactivatable Deblocking Filter
// (§4, Fig 5).
//
// The entropy layer uses real Exp-Golomb codes and a CAVLC-style residual
// coder (genuine coeff_token table for nC < 2, genuine level prefix/suffix
// codes; total_zeros and run_before use Exp-Golomb instead of the full
// per-count VLC tables — a documented simplification that preserves the
// bit-length *structure* the power model consumes). The transform layer is
// the real 4x4 integer transform with the spec's MF/V quantization tables.
package h264

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
)

// ErrBitstream reports malformed or truncated bitstream input.
var ErrBitstream = errors.New("h264: malformed bitstream")

// BitWriter assembles a bit-packed byte stream, MSB first. Bits accumulate
// in a word and spill to the byte buffer whole bytes at a time, so a
// WriteBits call costs one shift/merge instead of a per-bit loop. The
// scalar bit-at-a-time implementation is retained as the test-only oracle
// refBitWriter (bits_ref_test.go) and the two are checked against each
// other by the differential tests; output is byte-identical.
type BitWriter struct {
	buf  []byte
	acc  uint64 // pending sub-byte bits, right-aligned (oldest bit highest)
	pend int    // bits pending in acc (always < 8 between calls)
	nbit int    // total bits written
}

// NewBitWriter returns an empty writer.
func NewBitWriter() *BitWriter { return &BitWriter{} }

// Reset empties the writer and adopts buf (which may be nil) as the
// output backing, overwriting from its start. A caller encoding a stream
// of NAL units can hand the previous unit's backing straight back —
// w.Reset(w.Take()) — and reach a steady state where the writer
// allocates only when a unit outgrows every buffer it has ever used.
func (w *BitWriter) Reset(buf []byte) {
	w.buf = buf[:0]
	w.acc = 0
	w.pend = 0
	w.nbit = 0
}

// Grow ensures capacity for at least nbits more bits without another
// allocation — the grow-once policy for callers that know a unit's size
// bound up front.
func (w *BitWriter) Grow(nbits int) {
	need := len(w.buf) + (w.pend+nbits+7)/8
	if need <= cap(w.buf) {
		return
	}
	nb := make([]byte, len(w.buf), need)
	copy(nb, w.buf)
	w.buf = nb
}

// Take returns the writer's backing buffer truncated to the whole bytes
// written so far (no trailing padding — use Bytes for RBSP output) and
// detaches it from the writer. Intended for Reset recycling.
func (w *BitWriter) Take() []byte {
	b := w.buf
	w.buf = nil
	return b
}

// WriteBit appends one bit (any nonzero value writes 1).
func (w *BitWriter) WriteBit(b uint) {
	var v uint64
	if b != 0 {
		v = 1
	}
	w.writeSmall(v, 1)
	w.nbit++
}

// WriteBits appends the low n bits of v, most significant first. n outside
// [0, 64] is rejected with ErrBitstream and writes nothing.
func (w *BitWriter) WriteBits(v uint64, n int) error {
	if n < 0 || n > 64 {
		return fmt.Errorf("%w: WriteBits count %d outside [0, 64]", ErrBitstream, n)
	}
	if n == 0 {
		return nil
	}
	if n < 64 {
		v &= 1<<uint(n) - 1
	}
	// writeSmall needs pend+n <= 63; with pend < 8 any n <= 55 is safe.
	// Longer writes split into two halves.
	if n > 55 {
		h := n - 32
		w.writeSmall(v>>32, h)
		w.writeSmall(v&0xffffffff, 32)
	} else {
		w.writeSmall(v, n)
	}
	w.nbit += n
	return nil
}

// writeSmall merges n (<= 55) already-masked bits into the accumulator and
// spills every completed byte. Maintains the invariant pend < 8.
func (w *BitWriter) writeSmall(v uint64, n int) {
	big := w.acc<<uint(n) | v
	total := w.pend + n
	for total >= 8 {
		total -= 8
		w.buf = append(w.buf, byte(big>>uint(total)))
	}
	w.acc = big & (1<<uint(total) - 1)
	w.pend = total
}

// Len returns the number of bits written.
func (w *BitWriter) Len() int { return w.nbit }

// Bytes returns the stream padded to a byte boundary with RBSP-style
// trailing bits: a stop bit followed by zeros (only when unaligned or
// force is set).
func (w *BitWriter) Bytes(trailing bool) []byte {
	n := len(w.buf)
	if w.pend > 0 || trailing {
		n++
	}
	out := make([]byte, len(w.buf), n)
	copy(out, w.buf)
	last := byte(w.acc << uint(8-w.pend))
	if trailing {
		out = append(out, last|1<<uint(7-w.pend))
	} else if w.pend > 0 {
		out = append(out, last)
	}
	return out
}

// BitReader consumes a bit-packed byte stream, MSB first. Up to 64
// upcoming bits are cached MSB-aligned in a word refilled in bulk, so
// ReadBits is a shift/mask pair and ReadUE counts its Exp-Golomb prefix
// with one CLZ instead of a bit loop. The scalar implementation is
// retained as the test-only oracle refBitReader (bits_ref_test.go);
// differential tests pin the two to identical values and positions.
type BitReader struct {
	buf   []byte
	cache uint64 // upcoming bits, MSB-aligned; bits below nbits are zero
	nbits int    // valid bits in cache
	next  int    // bytes of buf consumed into the cache
}

// NewBitReader returns a reader over data.
func NewBitReader(data []byte) *BitReader { return &BitReader{buf: data} }

// refill tops the cache up to more than 56 valid bits (or to end of data).
// Away from the stream tail it merges one unaligned 8-byte load, masked
// down to the whole bytes that fit, preserving the invariant that bits
// below nbits are zero (ReadUE's CLZ fast path depends on it).
func (r *BitReader) refill() {
	if r.nbits <= 56 && r.next+8 <= len(r.buf) {
		k := (64 - r.nbits) >> 3 // whole bytes that fit the cache
		w := binary.BigEndian.Uint64(r.buf[r.next:]) &^ (1<<uint(64-8*k) - 1)
		r.cache |= w >> uint(r.nbits)
		r.nbits += 8 * k
		r.next += k
		return
	}
	for r.nbits <= 56 && r.next < len(r.buf) {
		r.cache |= uint64(r.buf[r.next]) << uint(56-r.nbits)
		r.nbits += 8
		r.next++
	}
}

// ReadBit returns the next bit.
func (r *BitReader) ReadBit() (uint, error) {
	if r.nbits == 0 {
		r.refill()
		if r.nbits == 0 {
			return 0, fmt.Errorf("%w: read past end at bit %d", ErrBitstream, r.BitsRead())
		}
	}
	b := uint(r.cache >> 63)
	r.cache <<= 1
	r.nbits--
	return b, nil
}

// ReadBits returns the next n bits as an unsigned value. n outside [0, 64]
// is rejected with ErrBitstream without consuming anything; reading past
// the end consumes the remaining bits and returns ErrBitstream.
func (r *BitReader) ReadBits(n int) (uint64, error) {
	if n < 0 || n > 64 {
		return 0, fmt.Errorf("%w: ReadBits count %d outside [0, 64]", ErrBitstream, n)
	}
	if n == 0 {
		return 0, nil
	}
	if r.nbits < n {
		r.refill()
	}
	if r.nbits >= n {
		v := r.cache >> uint(64-n)
		r.cache <<= uint(n) // n == 64 shifts everything out, per Go shift rules
		r.nbits -= n
		return v, nil
	}
	// Cache short even after refill: either fewer than n bits remain in the
	// stream, or n > 56 straddles a refill boundary.
	var v uint64
	for n > 0 {
		if r.nbits == 0 {
			r.refill()
			if r.nbits == 0 {
				return 0, fmt.Errorf("%w: read past end at bit %d", ErrBitstream, r.BitsRead())
			}
		}
		t := n
		if t > r.nbits {
			t = r.nbits
		}
		v = v<<uint(t) | r.cache>>uint(64-t)
		r.cache <<= uint(t)
		r.nbits -= t
		n -= t
	}
	return v, nil
}

// BitsRead returns the number of bits consumed so far.
func (r *BitReader) BitsRead() int { return r.next*8 - r.nbits }

// Remaining returns the number of unread bits.
func (r *BitReader) Remaining() int { return len(r.buf)*8 - r.BitsRead() }

// peek16 returns the next 16 bits zero-padded (without consuming) and how
// many of them are valid.
func (r *BitReader) peek16() (uint32, int) {
	if r.nbits < 16 {
		r.refill()
	}
	n := r.nbits
	if n > 16 {
		n = 16
	}
	return uint32(r.cache >> 48), n
}

// leadingOnes returns how many of the upcoming bits, up to max (<= 56),
// are ones, without consuming them. It refills first when fewer than max
// bits are cached; since the bits below nbits are zero, the count never
// runs past the valid bits, so skip(leadingOnes(max)) is always legal.
func (r *BitReader) leadingOnes(max int) int {
	if r.nbits < max {
		r.refill()
	}
	return min(bits.LeadingZeros64(^r.cache), max)
}

// skip discards n cached bits; callers must have established n <= r.nbits.
func (r *BitReader) skip(n int) {
	r.cache <<= uint(n)
	r.nbits -= n
}

// WriteUE appends an unsigned Exp-Golomb code ue(v).
func (w *BitWriter) WriteUE(v uint32) {
	code := uint64(v) + 1
	n := bits.Len64(code) - 1
	if 2*n+1 <= 55 { // writeSmall's safe width given pend < 8
		w.writeSmall(code, 2*n+1) // n leading zeros + code's n+1 bits, code already minimal
		w.nbit += 2*n + 1
		return
	}
	w.WriteBits(0, n)
	w.WriteBits(code, n+1)
}

// ReadUE decodes an unsigned Exp-Golomb code ue(v).
func (r *BitReader) ReadUE() (uint32, error) {
	// Fast path: the whole code sits in the cache. The prefix length is the
	// CLZ of the cache; the zero low bits of a short cache cannot fake a
	// shorter prefix, and faking a longer one is caught by the n <= nbits
	// bound (which also implies lz <= 31, since n <= 64) — so refill only
	// when that bound fails.
	lz := bits.LeadingZeros64(r.cache)
	if n := 2*lz + 1; n <= r.nbits {
		v := r.cache>>uint(64-n) - 1
		r.cache <<= uint(n)
		r.nbits -= n
		return uint32(v), nil
	}
	r.refill()
	lz = bits.LeadingZeros64(r.cache)
	if lz <= 31 && 2*lz+1 <= r.nbits {
		v := r.cache>>uint(63-2*lz) - 1
		r.skip(2*lz + 1)
		return uint32(v), nil
	}
	return r.readUESlow()
}

// readUESlow is the scalar tail of ReadUE: prefixes longer than 31 zeros
// (overflow and error cases) and codes truncated by end-of-stream. It
// consumes exactly the bits the scalar reference implementation does.
func (r *BitReader) readUESlow() (uint32, error) {
	n := 0
	for {
		b, err := r.ReadBit()
		if err != nil {
			return 0, err
		}
		if b == 1 {
			break
		}
		n++
		if n > 32 {
			return 0, fmt.Errorf("%w: ue(v) prefix too long", ErrBitstream)
		}
	}
	if n == 0 {
		return 0, nil
	}
	rest, err := r.ReadBits(n)
	if err != nil {
		return 0, err
	}
	v := (uint64(1)<<uint(n) | rest) - 1
	if v > math.MaxUint32 {
		return 0, fmt.Errorf("%w: ue(v) %d overflows 32 bits", ErrBitstream, v)
	}
	return uint32(v), nil
}

// WriteSE appends a signed Exp-Golomb code se(v) using the spec mapping
// (positive values first: 1 -> 1, -1 -> 2, 2 -> 3, ...). The mapping
// covers [math.MinInt32+1, math.MaxInt32]; -2^31 itself has no ue(v)
// code (its mapped value 2^32 exceeds the 32-bit ue space).
func (w *BitWriter) WriteSE(v int32) {
	var u uint32
	if v > 0 {
		u = uint32(2*int64(v) - 1)
	} else {
		u = uint32(-2 * int64(v))
	}
	w.WriteUE(u)
}

// ReadSE decodes a signed Exp-Golomb code se(v). The maximum ue code
// 2^32-1 maps to +2^31, which overflows int32 and is rejected.
func (r *BitReader) ReadSE() (int32, error) {
	u, err := r.ReadUE()
	if err != nil {
		return 0, err
	}
	if u%2 == 1 {
		if u == math.MaxUint32 {
			return 0, fmt.Errorf("%w: se(v) 2^31 overflows", ErrBitstream)
		}
		return int32(u/2) + 1, nil
	}
	return -int32(u / 2), nil
}
