package h264

import (
	"bytes"
	"fmt"
)

// NALType identifies the payload of a NAL unit. The values follow the
// H.264 nal_unit_type numbering where applicable.
type NALType int

// NAL unit types used by this model.
const (
	NALSliceNonIDR NALType = 1 // P or B slice
	NALSliceIDR    NALType = 5 // I (IDR) slice
	NALSPS         NALType = 7 // sequence parameter set
	NALPPS         NALType = 8 // picture parameter set
)

// String returns the NAL type name.
func (t NALType) String() string {
	switch t {
	case NALSliceNonIDR:
		return "non-IDR slice"
	case NALSliceIDR:
		return "IDR slice"
	case NALSPS:
		return "SPS"
	case NALPPS:
		return "PPS"
	}
	return fmt.Sprintf("nal(%d)", int(t))
}

// NAL is one network-abstraction-layer unit.
type NAL struct {
	Type NALType
	// RefIDC is nal_ref_idc: nonzero means the picture is used as a
	// reference. Non-reference B slices carry 0 and are the droppable
	// units the Input Selector targets.
	RefIDC int
	// Payload is the RBSP (already de-escaped on parse).
	Payload []byte
}

// SizeBytes returns the on-wire size the Input Selector compares against
// S_th: header byte plus escaped payload (start code excluded, matching
// the paper's per-NAL-unit size accounting).
func (n NAL) SizeBytes() int { return 1 + escapedLen(n.Payload) }

// escapedLen returns len(escapeRBSP(p)) without building the escaped
// stream — the Input Selector sizes every NAL unit per selector pass, so
// this is a pure counting loop.
func escapedLen(p []byte) int {
	n := len(p)
	zeros := 0
	for _, b := range p {
		if zeros >= 2 && b <= 3 {
			n++
			zeros = 0
		}
		if b == 0 {
			zeros++
		} else {
			zeros = 0
		}
	}
	return n
}

var startCode = []byte{0, 0, 0, 1}

// escapeSeq is two zeros and an emulation prevention byte.
var escapeSeq = []byte{0, 0, 3}

// escapeRBSP inserts emulation_prevention_three_byte (0x03) after any
// 0x0000 pair followed by a byte <= 0x03, per the spec.
func escapeRBSP(p []byte) []byte {
	out := make([]byte, 0, len(p)+4)
	zeros := 0
	for _, b := range p {
		if zeros >= 2 && b <= 3 {
			out = append(out, 3)
			zeros = 0
		}
		out = append(out, b)
		if b == 0 {
			zeros++
		} else {
			zeros = 0
		}
	}
	return out
}

// unescapeRBSP removes emulation prevention bytes. When the payload
// contains no escapes — the overwhelmingly common case — it returns p
// itself: callers (SplitStream consumers) treat payloads as read-only, so
// the zero-copy subslice is safe and skips one allocation per NAL unit.
func unescapeRBSP(p []byte) []byte {
	// First pass: find the first escape byte, if any: a 3 after two
	// zeros, followed by a byte no greater than 3.
	esc := -1
	for i := 0; ; {
		j := bytes.Index(p[i:], escapeSeq)
		if j < 0 {
			break
		}
		if e := i + j + 2; e+1 < len(p) && p[e+1] <= 3 {
			esc = e
			break
		}
		i += j + 3
	}
	if esc < 0 {
		return p
	}
	out := make([]byte, 0, len(p))
	out = append(out, p[:esc]...)
	zeros := 0 // the escape follows two zeros; they are already appended
	for i := esc; i < len(p); i++ {
		b := p[i]
		if i == esc {
			continue // drop the first escape byte found above
		}
		if zeros >= 2 && b == 3 && i+1 < len(p) && p[i+1] <= 3 {
			zeros = 0
			continue // drop the escape byte
		}
		out = append(out, b)
		if b == 0 {
			zeros++
		} else {
			zeros = 0
		}
	}
	return out
}

// MarshalNAL frames one NAL unit with a 4-byte start code, the header byte
// (forbidden_zero_bit, nal_ref_idc, nal_unit_type), and the escaped payload.
func MarshalNAL(n NAL) ([]byte, error) {
	if n.Type < 0 || int(n.Type) > 31 {
		return nil, fmt.Errorf("h264: invalid NAL type %d", int(n.Type))
	}
	if n.RefIDC < 0 || n.RefIDC > 3 {
		return nil, fmt.Errorf("h264: invalid nal_ref_idc %d", n.RefIDC)
	}
	header := byte(n.RefIDC<<5) | byte(n.Type)
	out := make([]byte, 0, len(n.Payload)+5)
	out = append(out, startCode...)
	out = append(out, header)
	out = append(out, escapeRBSP(n.Payload)...)
	return out, nil
}

// MarshalStream frames a sequence of NAL units.
func MarshalStream(units []NAL) ([]byte, error) {
	var buf bytes.Buffer
	for _, n := range units {
		b, err := MarshalNAL(n)
		if err != nil {
			return nil, err
		}
		buf.Write(b)
	}
	return buf.Bytes(), nil
}

// SplitStream scans an annex-B byte stream into NAL units, accepting both
// 3-byte and 4-byte start codes.
func SplitStream(stream []byte) ([]NAL, error) {
	return SplitStreamInto(stream, nil)
}

// SplitStreamInto is SplitStream appending into units (reusing its backing
// array), for callers that split streams repeatedly — pass units[:0] to
// recycle the previous call's slice.
func SplitStreamInto(stream []byte, units []NAL) ([]NAL, error) {
	i := 0
	// find first start code
	start, _ := nextStartCode(stream, 0)
	if start < 0 {
		if len(stream) == 0 {
			return nil, nil
		}
		return nil, fmt.Errorf("%w: no start code", ErrBitstream)
	}
	i = start
	for i < len(stream) {
		_, hdr := nextStartCode(stream, i)
		if hdr < 0 {
			break
		}
		next, _ := nextStartCode(stream, hdr)
		end := len(stream)
		if next >= 0 {
			end = next
		}
		if hdr >= end {
			return nil, fmt.Errorf("%w: empty NAL unit at %d", ErrBitstream, i)
		}
		header := stream[hdr]
		if header&0x80 != 0 {
			return nil, fmt.Errorf("%w: forbidden_zero_bit set at %d", ErrBitstream, hdr)
		}
		units = append(units, NAL{
			Type:    NALType(header & 0x1f),
			RefIDC:  int(header >> 5),
			Payload: unescapeRBSP(stream[hdr+1 : end]),
		})
		i = end
	}
	return units, nil
}

// nextStartCode returns the index of the next start code at or after i and
// the index just past it (the header byte), or (-1, -1).
func nextStartCode(b []byte, i int) (codeStart, payloadStart int) {
	for i+3 <= len(b) {
		j := bytes.IndexByte(b[i:len(b)-2], 0)
		if j < 0 {
			break
		}
		i += j
		if b[i+1] == 0 {
			if b[i+2] == 1 {
				return i, i + 3
			}
			if i+4 <= len(b) && b[i+2] == 0 && b[i+3] == 1 {
				return i, i + 4
			}
		}
		i++
	}
	return -1, -1
}
