package wire

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"
)

// goldenFrames is one frame of every type with fixed payloads. The hex
// encodings and the battery sha256 below pin the wire layout: any change
// to field order, widths, endianness, the magic, or the length prefix
// fails this test loudly instead of silently breaking deployed peers. If
// the format changes deliberately, bump Version and re-pin. The Hello pin
// carries version 1 on purpose: it fixes the layout, which version 2 left
// unchanged, and TestCheckHello uses it as the refused version-1 peer.
var goldenFrames = []struct {
	name  string
	frame Frame
	hex   string
}{
	{
		"hello",
		Frame{Type: Hello, Version: 1, Session: 0x0123456789abcdef, Dim: 24},
		"1100000001414645310100efcdab89674523011800",
	},
	{
		"snapshot_req",
		Frame{Type: SnapshotReq, Seq: 4},
		"09000000040400000000000000",
	},
	{
		"ack",
		Frame{Type: Ack, Seq: 5, Data: []byte{0xab, 0xcd}},
		"0f00000005050000000000000002000000abcd",
	},
	{
		"err",
		Frame{Type: Err, Seq: 6, Code: CodeBackpressure, Msg: "full"},
		"110000000606000000000000000100040066756c6c",
	},
	{
		"observe_batch",
		Frame{Type: ObserveBatch, Batch: []BatchObs{
			{Seq: 7, At: 1000000000, Vals: []float64{1.5}},
			{Seq: 8, At: 2000000000, Vals: []float64{-0.25, 0.5}},
		}},
		"3f000000070200070000000000000000ca9a3b000000000100000000000000f83f080000000000000000943577000000000200000000000000d0bf000000000000e03f",
	},
	{
		"ack_batch",
		Frame{Type: AckBatch, Seq: 7, Count: 2, Bitmap: []byte{0b10}},
		"0c000000080700000000000000020002",
	},
}

// goldenBatterySHA256 is the sha256 of the concatenated encodings above.
// Re-pinned when protocol version 2 retired the OBSERVE and OBSERVE_CHUNK
// frames (pure removal: every remaining frame's hex above is unchanged).
const goldenBatterySHA256 = "8b4ff2557807062f0591f306929b5973413aa4f3ae3bc756c70b226d628a6568"

func TestGoldenWireFormat(t *testing.T) {
	h := sha256.New()
	for _, g := range goldenFrames {
		buf, err := Append(nil, &g.frame)
		if err != nil {
			t.Fatalf("%s: encode: %v", g.name, err)
		}
		if got := hex.EncodeToString(buf); got != g.hex {
			t.Errorf("%s: wire bytes changed:\n got %s\nwant %s", g.name, got, g.hex)
		}
		h.Write(buf)
		// The pinned bytes must also decode back to the same frame.
		var f Frame
		if err := DecodeBody(&f, buf[lenSize:]); err != nil {
			t.Fatalf("%s: decode: %v", g.name, err)
		}
		if !frameEq(&g.frame, &f) {
			t.Errorf("%s: golden round trip mismatch: %+v vs %+v", g.name, g.frame, f)
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != goldenBatterySHA256 {
		t.Errorf("wire battery sha256 changed:\n got %s\nwant %s", got, goldenBatterySHA256)
	}
}

// TestGoldenHelloOnTheWire spells out the Hello layout byte by byte, the
// human-readable twin of the hex pin: a reviewer can diff this against the
// package comment's layout table.
func TestGoldenHelloOnTheWire(t *testing.T) {
	buf, err := Append(nil, &Frame{Type: Hello, Version: 1, Session: 2, Dim: 3})
	if err != nil {
		t.Fatal(err)
	}
	want := []byte{
		17, 0, 0, 0, // length = 1 type byte + 16 payload
		0x01,               // HELLO
		'A', 'F', 'E', '1', // magic
		1, 0, // version u16 LE
		2, 0, 0, 0, 0, 0, 0, 0, // session u64 LE
		3, 0, // dim u16 LE
	}
	if string(buf) != string(want) {
		t.Fatalf("hello layout changed:\n got % x\nwant % x", buf, want)
	}
}

// TestGoldenAckBatchOnTheWire spells out the AckBatch layout byte by byte:
// base seq, item count, then one LSB-first bitmap bit per item.
func TestGoldenAckBatchOnTheWire(t *testing.T) {
	buf, err := Append(nil, &Frame{Type: AckBatch, Seq: 9, Count: 10, Bitmap: []byte{0b1000_0001, 0b10}})
	if err != nil {
		t.Fatal(err)
	}
	want := []byte{
		13, 0, 0, 0, // length = 1 type byte + 12 payload
		0x08,                   // ACK_BATCH
		9, 0, 0, 0, 0, 0, 0, 0, // base seq u64 LE
		10, 0, // count u16 LE
		0b1000_0001, 0b10, // items 0, 7, 9 NACKed
	}
	if string(buf) != string(want) {
		t.Fatalf("ack batch layout changed:\n got % x\nwant % x", buf, want)
	}
	for i, nacked := range []bool{true, false, false, false, false, false, false, true, false, true} {
		if Nacked(want[15:], i) != nacked {
			t.Fatalf("bitmap bit %d: got %v, want %v", i, Nacked(want[15:], i), nacked)
		}
	}
}
