// Package wire defines the fleet ingest protocol: the length-prefixed
// binary frames a device client speaks to the TCP ingest server
// (internal/server). The format is deliberately dumb — fixed little-endian
// layouts, no varints, no compression — so that encode and decode are a
// handful of loads and stores, round-trip bit-exactly, and can be pinned
// by golden byte tests.
//
// One frame on the wire is
//
//	u32 length | u8 type | payload
//
// where length counts the type byte plus the payload and is bounded by
// MaxFrame, so a receiver never buffers more than MaxFrame+4 bytes (plus
// one read chunk) per connection no matter what arrives. The payload
// layout per type (all integers little-endian, floats as IEEE-754 bits):
//
//	Hello        magic u32 | version u16 | session u64 | dim u16
//	SnapshotReq  seq u64
//	Ack          seq u64 | dlen u32 | dlen bytes
//	Err          seq u64 | code u16 | mlen u16 | mlen bytes
//	ObserveBatch count u16 | count × (seq u64 | at i64 | vcount u16 | vcount × f64)
//	AckBatch     base u64 | count u16 | ceil(count/8) bitmap bytes
//
// Hello opens a connection and authenticates exactly one session id; every
// later frame belongs to that session, so observations carry only a
// sequence number, a virtual timestamp, and the feature values.
//
// ObserveBatch is the one observation frame: it carries count complete
// observations, each with its own seq (a single observation is a one-item
// batch), and is answered by one AckBatch whose base seq names the batch's
// first item and whose bitmap carries one bit per item (LSB-first within
// each byte; bit i set means item i was NACKed with backpressure and
// should be retried). Per-item bits keep one full shard from failing a
// whole connection's frame; any non-retryable condition answers with a
// plain Err. Ack confirms a SnapshotReq (Data carries the snapshot) or a
// Hello; Err rejects a frame with a Code — CodeBackpressure is the
// protocol image of fleet.ErrBackpressure.
//
// Version 2 retired the per-observation OBSERVE (0x02) and OBSERVE_CHUNK
// (0x03) frames. Their type bytes stay unassigned, so a version-1 peer's
// observation frames fail decode with ErrBadType.
//
// Framing for partial reads lives in Splitter: feed arbitrary byte chunks
// and complete frames come out, carry-buffered across chunk boundaries
// exactly like the h264 progressive decoder carries partial NAL units.
// Chunked decode is bit-identical to whole-buffer decode (fuzz-pinned by
// FuzzFrameSplit).
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// Protocol constants.
const (
	// Magic opens every Hello payload; on the wire it reads "AFE1".
	Magic uint32 = 0x31454641
	// Version is the protocol version spoken by this package. A Hello
	// carrying any other version fails CheckHello with *VersionError.
	Version uint16 = 2
	// MaxFrame bounds the frame body (type byte + payload). Frames
	// declaring more fail to encode and poison the Splitter on decode, so
	// per-connection buffering is bounded regardless of peer behavior.
	MaxFrame = 1 << 20
	// lenSize is the width of the length prefix.
	lenSize = 4
)

// Type identifies a frame.
type Type uint8

// Frame types.
const (
	Hello        Type = 0x01 // client → server: open + authenticate a session
	SnapshotReq  Type = 0x04 // client → server: request the session's snapshot
	Ack          Type = 0x05 // server → client: frame seq accepted (+ reply data)
	Err          Type = 0x06 // server → client: frame seq rejected with a code
	ObserveBatch Type = 0x07 // client → server: many whole observations in one frame
	AckBatch     Type = 0x08 // server → client: per-item verdicts for one ObserveBatch
)

// String names the type for errors and logs.
func (t Type) String() string {
	switch t {
	case Hello:
		return "HELLO"
	case SnapshotReq:
		return "SNAPSHOT_REQ"
	case Ack:
		return "ACK"
	case Err:
		return "ERR"
	case ObserveBatch:
		return "OBSERVE_BATCH"
	case AckBatch:
		return "ACK_BATCH"
	}
	return fmt.Sprintf("Type(0x%02x)", uint8(t))
}

// Code classifies an Err frame.
type Code uint16

// Err codes.
const (
	CodeBackpressure   Code = 1 // shard ingress queue full: retry later (fleet.ErrBackpressure)
	CodeUnknownSession Code = 2 // session not connected (never added, removed, or parked)
	CodeBadFrame       Code = 3 // malformed or out-of-protocol frame
	CodeVersion        Code = 4 // Hello version mismatch
	CodeDim            Code = 5 // observation dimensionality mismatch
	CodeClosed         Code = 6 // fleet shut down
	CodeInternal       Code = 7 // server-side failure
	CodeBadValue       Code = 8 // non-finite (NaN or ±Inf) feature value (fleet.ErrBadValue)
)

// Derived payload bounds, all implied by MaxFrame.
const (
	// MaxVals caps the float64 count of one batch item: the vcount field
	// is a u16, so any feature vector a Hello's u16 dim admits fits one
	// item (21 + 8×65535 < MaxFrame).
	MaxVals = 1<<16 - 1
	// MaxData caps an Ack's reply payload.
	MaxData = MaxFrame - 1 - ackHeadLen
	// MaxMsg caps an Err's message. Much smaller than the frame bound:
	// messages are diagnostics, not transport.
	MaxMsg = 512

	// MaxBatch caps the item count of one ObserveBatch/AckBatch: the
	// count field is a u16. MaxFrame is the binding bound in practice
	// (each item costs at least batchItemHead bytes).
	MaxBatch = 1<<16 - 1

	helloLen      = 16 // magic u32 + version u16 + session u64 + dim u16
	snapshotLen   = 8  // seq u64
	ackHeadLen    = 12 // seq u64 + dlen u32
	errHeadLen    = 12 // seq u64 + code u16 + mlen u16
	batchHeadLen  = 2  // count u16
	batchItemHead = 18 // seq u64 + at i64 + vcount u16
	ackBatchHead  = 10 // base seq u64 + count u16
)

// Sentinel decode errors.
var (
	// ErrFrameTooBig reports a length prefix exceeding MaxFrame (or an
	// encode attempt that would).
	ErrFrameTooBig = errors.New("wire: frame exceeds MaxFrame")
	// ErrBadMagic reports a Hello whose magic is not Magic.
	ErrBadMagic = errors.New("wire: bad magic")
	// ErrTruncated reports a frame body shorter than its layout requires.
	ErrTruncated = errors.New("wire: truncated frame")
	// ErrTrailing reports bytes after a frame's fixed layout — the frame
	// lied about its length. Strict rejection keeps one byte stream one
	// unambiguous frame sequence.
	ErrTrailing = errors.New("wire: trailing bytes in frame")
	// ErrBadType reports an unknown frame type byte.
	ErrBadType = errors.New("wire: unknown frame type")
	// ErrEmptyBatch reports an ObserveBatch or AckBatch with zero items.
	// A batch frame that carries nothing has no meaning, so it is
	// rejected structurally rather than special-cased by every handler.
	ErrEmptyBatch = errors.New("wire: empty batch")
	// ErrBadBitmap reports an AckBatch bitmap whose length does not match
	// ceil(count/8) or whose padding bits past count are set — rejected
	// so every accepted byte stream has exactly one decoding.
	ErrBadBitmap = errors.New("wire: bad ack bitmap")
)

// VersionError reports a Hello whose protocol version does not match
// Version, mirroring the typed snapshot-version errors of internal/nn and
// internal/fleet: peers from the future fail loudly, before any state.
type VersionError struct {
	Got, Want uint16
}

func (e *VersionError) Error() string {
	return fmt.Sprintf("wire: protocol version %d, want %d", e.Got, e.Want)
}

// Frame is one decoded protocol frame. A single struct covers every type;
// the per-type layouts above say which fields are live. Decode reuses the
// Batch, Data, and Bitmap backing arrays, so a Frame can be recycled across
// a whole connection without steady-state allocation.
type Frame struct {
	Type Type

	// Hello fields.
	Version uint16 // protocol version (CheckHello enforces == Version)
	Session uint64 // session id this connection authenticates as
	Dim     uint16 // feature dimensionality the client will send

	// Sequencing (SnapshotReq, Ack, Err; AckBatch's base seq).
	Seq uint64

	// Ack field.
	Data []byte // reply payload (snapshot bytes); empty for plain acks

	// Err fields.
	Code Code
	Msg  string

	// ObserveBatch field. Decode sub-slices every item's Vals out of one
	// flat backing (vals), so a recycled Frame decodes batches without
	// per-item allocation.
	Batch []BatchObs
	vals  []float64

	// AckBatch fields: Seq is the base (first item's) seq, Count the
	// number of items covered, and Bitmap holds ceil(Count/8) bytes with
	// bit i (LSB-first) set when item i was NACKed and should be retried.
	Count  int
	Bitmap []byte
}

// BatchObs is one observation inside an ObserveBatch frame.
type BatchObs struct {
	Seq  uint64
	At   int64
	Vals []float64
}

// BitmapLen is the AckBatch bitmap size covering count items.
func BitmapLen(count int) int { return (count + 7) / 8 }

// SetNack marks item i NACKed in an AckBatch bitmap.
func SetNack(bitmap []byte, i int) { bitmap[i/8] |= 1 << (i % 8) }

// Nacked reports whether item i is NACKed in an AckBatch bitmap.
func Nacked(bitmap []byte, i int) bool { return bitmap[i/8]&(1<<(i%8)) != 0 }

// Append encodes f and appends the complete frame (length prefix included)
// to dst, returning the extended slice. It validates payload bounds; an
// oversized frame returns ErrFrameTooBig (wrapped) and leaves dst
// untouched.
func Append(dst []byte, f *Frame) ([]byte, error) {
	body, err := f.bodyLen()
	if err != nil {
		return dst, err
	}
	dst = binary.LittleEndian.AppendUint32(dst, uint32(body))
	dst = append(dst, byte(f.Type))
	switch f.Type {
	case Hello:
		dst = binary.LittleEndian.AppendUint32(dst, Magic)
		dst = binary.LittleEndian.AppendUint16(dst, f.Version)
		dst = binary.LittleEndian.AppendUint64(dst, f.Session)
		dst = binary.LittleEndian.AppendUint16(dst, f.Dim)
	case SnapshotReq:
		dst = binary.LittleEndian.AppendUint64(dst, f.Seq)
	case Ack:
		dst = binary.LittleEndian.AppendUint64(dst, f.Seq)
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(f.Data)))
		dst = append(dst, f.Data...)
	case Err:
		dst = binary.LittleEndian.AppendUint64(dst, f.Seq)
		dst = binary.LittleEndian.AppendUint16(dst, uint16(f.Code))
		dst = binary.LittleEndian.AppendUint16(dst, uint16(len(f.Msg)))
		dst = append(dst, f.Msg...)
	case ObserveBatch:
		dst = binary.LittleEndian.AppendUint16(dst, uint16(len(f.Batch)))
		for i := range f.Batch {
			it := &f.Batch[i]
			dst = binary.LittleEndian.AppendUint64(dst, it.Seq)
			dst = binary.LittleEndian.AppendUint64(dst, uint64(it.At))
			dst = binary.LittleEndian.AppendUint16(dst, uint16(len(it.Vals)))
			for _, v := range it.Vals {
				dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
			}
		}
	case AckBatch:
		dst = binary.LittleEndian.AppendUint64(dst, f.Seq)
		dst = binary.LittleEndian.AppendUint16(dst, uint16(f.Count))
		dst = append(dst, f.Bitmap...)
	}
	return dst, nil
}

// bodyLen computes and validates the encoded body length of f.
func (f *Frame) bodyLen() (int, error) {
	switch f.Type {
	case Hello:
		return 1 + helloLen, nil
	case SnapshotReq:
		return 1 + snapshotLen, nil
	case Ack:
		if len(f.Data) > MaxData {
			return 0, fmt.Errorf("%w: %d data bytes", ErrFrameTooBig, len(f.Data))
		}
		return 1 + ackHeadLen + len(f.Data), nil
	case Err:
		if len(f.Msg) > MaxMsg {
			return 0, fmt.Errorf("%w: %d message bytes", ErrFrameTooBig, len(f.Msg))
		}
		return 1 + errHeadLen + len(f.Msg), nil
	case ObserveBatch:
		if len(f.Batch) == 0 {
			return 0, fmt.Errorf("%w: OBSERVE_BATCH", ErrEmptyBatch)
		}
		if len(f.Batch) > MaxBatch {
			return 0, fmt.Errorf("%w: %d batch items", ErrFrameTooBig, len(f.Batch))
		}
		n := 1 + batchHeadLen
		for i := range f.Batch {
			if len(f.Batch[i].Vals) > MaxVals {
				return 0, fmt.Errorf("%w: %d values in batch item %d", ErrFrameTooBig, len(f.Batch[i].Vals), i)
			}
			n += batchItemHead + 8*len(f.Batch[i].Vals)
		}
		if n > MaxFrame {
			return 0, fmt.Errorf("%w: %d body bytes", ErrFrameTooBig, n)
		}
		return n, nil
	case AckBatch:
		if f.Count == 0 {
			return 0, fmt.Errorf("%w: ACK_BATCH", ErrEmptyBatch)
		}
		if f.Count > MaxBatch {
			return 0, fmt.Errorf("%w: %d batch items", ErrFrameTooBig, f.Count)
		}
		if len(f.Bitmap) != BitmapLen(f.Count) {
			return 0, fmt.Errorf("%w: %d bitmap bytes for %d items, want %d",
				ErrBadBitmap, len(f.Bitmap), f.Count, BitmapLen(f.Count))
		}
		if pad := f.Count % 8; pad != 0 && f.Bitmap[len(f.Bitmap)-1]>>pad != 0 {
			return 0, fmt.Errorf("%w: padding bits set past item %d", ErrBadBitmap, f.Count)
		}
		return 1 + ackBatchHead + len(f.Bitmap), nil
	}
	return 0, fmt.Errorf("%w: 0x%02x", ErrBadType, uint8(f.Type))
}

// DecodeBody parses one frame body (the bytes the length prefix counts:
// type byte plus payload) into f, reusing f's slice capacity.
// Layouts are strict: short bodies fail ErrTruncated, extra bytes fail
// ErrTrailing, a Hello with the wrong magic fails ErrBadMagic, and value
// counts are checked against the body before anything is allocated, so a
// hostile body can never cause an allocation past the MaxFrame bound.
func DecodeBody(f *Frame, body []byte) error {
	if len(body) < 1 {
		return fmt.Errorf("%w: empty body", ErrTruncated)
	}
	if len(body) > MaxFrame {
		return fmt.Errorf("%w: %d body bytes", ErrFrameTooBig, len(body))
	}
	f.Type = Type(body[0])
	p := body[1:]
	switch f.Type {
	case Hello:
		if len(p) != helloLen {
			return lenErr(f.Type, len(p), helloLen)
		}
		if got := binary.LittleEndian.Uint32(p); got != Magic {
			return fmt.Errorf("%w: 0x%08x", ErrBadMagic, got)
		}
		f.Version = binary.LittleEndian.Uint16(p[4:])
		f.Session = binary.LittleEndian.Uint64(p[6:])
		f.Dim = binary.LittleEndian.Uint16(p[14:])
	case SnapshotReq:
		if len(p) != snapshotLen {
			return lenErr(f.Type, len(p), snapshotLen)
		}
		f.Seq = binary.LittleEndian.Uint64(p)
	case Ack:
		if len(p) < ackHeadLen {
			return lenErr(f.Type, len(p), ackHeadLen)
		}
		f.Seq = binary.LittleEndian.Uint64(p)
		dlen := int(binary.LittleEndian.Uint32(p[8:]))
		if len(p)-ackHeadLen != dlen {
			return fmt.Errorf("%w: ACK declares %d data bytes, body carries %d",
				ErrTrailing, dlen, len(p)-ackHeadLen)
		}
		f.Data = append(f.Data[:0], p[ackHeadLen:]...)
	case Err:
		if len(p) < errHeadLen {
			return lenErr(f.Type, len(p), errHeadLen)
		}
		f.Seq = binary.LittleEndian.Uint64(p)
		f.Code = Code(binary.LittleEndian.Uint16(p[8:]))
		mlen := int(binary.LittleEndian.Uint16(p[10:]))
		if mlen > MaxMsg {
			return fmt.Errorf("%w: %d message bytes", ErrFrameTooBig, mlen)
		}
		if len(p)-errHeadLen != mlen {
			return fmt.Errorf("%w: ERR declares %d message bytes, body carries %d",
				ErrTrailing, mlen, len(p)-errHeadLen)
		}
		f.Msg = string(p[errHeadLen:])
	case ObserveBatch:
		return decodeBatch(f, p)
	case AckBatch:
		if len(p) < ackBatchHead {
			return lenErr(f.Type, len(p), ackBatchHead)
		}
		f.Seq = binary.LittleEndian.Uint64(p)
		n := int(binary.LittleEndian.Uint16(p[8:]))
		if n == 0 {
			return fmt.Errorf("%w: ACK_BATCH", ErrEmptyBatch)
		}
		bl := BitmapLen(n)
		if len(p)-ackBatchHead != bl {
			return fmt.Errorf("%w: ACK_BATCH declares %d items (%d bitmap bytes), body carries %d",
				ErrTrailing, n, bl, len(p)-ackBatchHead)
		}
		bm := p[ackBatchHead:]
		if pad := n % 8; pad != 0 && bm[bl-1]>>pad != 0 {
			return fmt.Errorf("%w: padding bits set past item %d", ErrBadBitmap, n)
		}
		f.Count = n
		f.Bitmap = append(f.Bitmap[:0], bm...)
	default:
		return fmt.Errorf("%w: 0x%02x", ErrBadType, uint8(f.Type))
	}
	return nil
}

// decodeBatch parses an ObserveBatch payload in two passes: the first
// validates every item's layout against the body and sums the value counts,
// the second fills f.Batch with Vals views sub-sliced from one flat backing
// (f.vals). Growing the backing between items would invalidate earlier
// views, hence validate-then-fill.
func decodeBatch(f *Frame, p []byte) error {
	if len(p) < batchHeadLen {
		return lenErr(f.Type, len(p), batchHeadLen)
	}
	n := int(binary.LittleEndian.Uint16(p))
	if n == 0 {
		return fmt.Errorf("%w: OBSERVE_BATCH", ErrEmptyBatch)
	}
	items := p[batchHeadLen:]
	off, total := 0, 0
	for i := 0; i < n; i++ {
		if len(items)-off < batchItemHead {
			return fmt.Errorf("%w: OBSERVE_BATCH item %d of %d at byte %d", ErrTruncated, i, n, off)
		}
		vc := int(binary.LittleEndian.Uint16(items[off+16:]))
		if len(items)-off-batchItemHead < 8*vc {
			return fmt.Errorf("%w: OBSERVE_BATCH item %d declares %d values", ErrTruncated, i, vc)
		}
		off += batchItemHead + 8*vc
		total += vc
	}
	if off != len(items) {
		return fmt.Errorf("%w: OBSERVE_BATCH declares %d items in %d bytes, body carries %d",
			ErrTrailing, n, off, len(items))
	}
	if cap(f.vals) < total {
		f.vals = make([]float64, total)
	}
	f.vals = f.vals[:total]
	if cap(f.Batch) < n {
		f.Batch = make([]BatchObs, n)
	}
	f.Batch = f.Batch[:n]
	off, total = 0, 0
	for i := 0; i < n; i++ {
		it := &f.Batch[i]
		it.Seq = binary.LittleEndian.Uint64(items[off:])
		it.At = int64(binary.LittleEndian.Uint64(items[off+8:]))
		vc := int(binary.LittleEndian.Uint16(items[off+16:]))
		off += batchItemHead
		it.Vals = f.vals[total : total+vc : total+vc]
		for k := range it.Vals {
			it.Vals[k] = math.Float64frombits(binary.LittleEndian.Uint64(items[off+8*k:]))
		}
		off += 8 * vc
		total += vc
	}
	return nil
}

func lenErr(t Type, got, want int) error {
	if got < want {
		return fmt.Errorf("%w: %s payload %d bytes, want %d", ErrTruncated, t, got, want)
	}
	return fmt.Errorf("%w: %s payload %d bytes, want %d", ErrTrailing, t, got, want)
}

// CheckHello validates a decoded Hello frame's protocol version: any
// mismatch is a typed *VersionError so peers from a different protocol
// generation fail loudly and diagnosably. (The magic is already enforced
// structurally by DecodeBody.)
func CheckHello(f *Frame) error {
	if f.Type != Hello {
		return fmt.Errorf("wire: first frame %s, want HELLO", f.Type)
	}
	if f.Version != Version {
		return &VersionError{Got: f.Version, Want: Version}
	}
	return nil
}
