package wire

import (
	"encoding/binary"
	"math"
	"unsafe"
)

// hostLE reports whether this host stores a float64 as its little-endian
// IEEE-754 bits, i.e. whether an ObserveBatch value run's wire bytes are
// already its in-memory layout.
var hostLE = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// f64Bytes views vals' backing array as its 8·len(vals) raw bytes.
func f64Bytes(vals []float64) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(vals))), 8*len(vals))
}

// appendF64s appends vals as little-endian IEEE-754 bits: one bulk copy on
// little-endian hosts, appendF64sLoop elsewhere.
func appendF64s(dst []byte, vals []float64) []byte {
	if hostLE {
		return append(dst, f64Bytes(vals)...)
	}
	return appendF64sLoop(dst, vals)
}

// getF64s fills dst from the first 8·len(dst) bytes of src, the inverse of
// appendF64s. The copy writes through dst's (aligned) backing, so src may
// sit at any offset in a frame.
func getF64s(dst []float64, src []byte) {
	if hostLE {
		copy(f64Bytes(dst), src[:8*len(dst)])
		return
	}
	getF64sLoop(dst, src)
}

// appendF64sLoop is the portable per-value appendF64s body.
func appendF64sLoop(dst []byte, vals []float64) []byte {
	for _, v := range vals {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
	}
	return dst
}

// getF64sLoop is the portable per-value getF64s body.
func getF64sLoop(dst []float64, src []byte) {
	for k := range dst {
		dst[k] = math.Float64frombits(binary.LittleEndian.Uint64(src[8*k:]))
	}
}
