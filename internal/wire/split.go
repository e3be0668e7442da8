package wire

import (
	"encoding/binary"
	"fmt"
)

// Splitter reassembles frames from a TCP byte stream: feed it whatever a
// socket read returned and pull complete frames out, carry-buffered across
// chunk boundaries. The split is a pure function of the byte sequence —
// feeding the same bytes in any fragmentation yields the same frames and
// the same terminal error (pinned by FuzzFrameSplit).
//
// Memory is bounded: the head frame's declared length is validated against
// MaxFrame before it is waited for, and errors are sticky, so a connection
// that alternates Feed and Next never buffers more than MaxFrame+4 bytes
// of undecoded input plus one fed chunk.
//
// Not safe for concurrent use; one Splitter belongs to one connection's
// read loop.
type Splitter struct {
	carry []byte
	off   int // consumed prefix of carry, reclaimed on Feed
	err   error

	peak int
}

// Feed appends one chunk of stream bytes. It returns the sticky error, if
// any: once the stream is unparseable (oversized or malformed head frame)
// all further bytes are refused — a framing error is not recoverable,
// because frame boundaries are gone.
func (s *Splitter) Feed(p []byte) error {
	if s.err != nil {
		return s.err
	}
	if s.off > 0 { // reclaim consumed prefix before growing
		n := copy(s.carry, s.carry[s.off:])
		s.carry = s.carry[:n]
		s.off = 0
	}
	s.carry = append(s.carry, p...)
	if len(s.carry) > s.peak {
		s.peak = len(s.carry)
	}
	return s.checkHead()
}

// Next decodes the next complete frame into f, reusing f's buffers. It
// returns (false, nil) when the carry holds no complete frame yet, and the
// sticky error once the stream is unparseable. Frames decoded before the
// stream went bad were already delivered — bad bytes poison only the
// remainder.
func (s *Splitter) Next(f *Frame) (bool, error) {
	if s.err != nil {
		return false, s.err
	}
	if err := s.checkHead(); err != nil {
		return false, err
	}
	rest := s.carry[s.off:]
	if len(rest) < lenSize {
		return false, nil
	}
	body := int(binary.LittleEndian.Uint32(rest))
	if len(rest) < lenSize+body {
		return false, nil
	}
	if err := DecodeBody(f, rest[lenSize:lenSize+body]); err != nil {
		s.err = err
		return false, err
	}
	s.off += lenSize + body
	return true, nil
}

// checkHead validates the head frame's declared length as soon as the
// prefix is readable, so an oversized frame fails before any buffering —
// never after MaxFrame bytes of it accumulated.
func (s *Splitter) checkHead() error {
	rest := s.carry[s.off:]
	if len(rest) < lenSize {
		return nil
	}
	body := binary.LittleEndian.Uint32(rest)
	if body == 0 {
		s.err = fmt.Errorf("%w: zero-length frame", ErrTruncated)
	} else if body > MaxFrame {
		s.err = fmt.Errorf("%w: declared body %d", ErrFrameTooBig, body)
	}
	return s.err
}

// Pending returns the number of buffered, not yet consumed bytes — a
// non-empty value at connection end means the peer hung up mid-frame.
func (s *Splitter) Pending() int { return len(s.carry) - s.off }

// PeakCarry reports the high-water carry size: bounded by the largest
// frame plus the largest fed chunk, independent of stream length.
func (s *Splitter) PeakCarry() int { return s.peak }

// Reset clears the carry and the sticky error so a pooled Splitter can be
// reused for a fresh connection.
func (s *Splitter) Reset() {
	s.carry = s.carry[:0]
	s.off = 0
	s.err = nil
	s.peak = 0
}
