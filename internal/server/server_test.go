package server

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"strings"
	"testing"
	"time"

	"affectedge/internal/fleet"
	"affectedge/internal/wire"
)

// checkGoroutines snapshots the goroutine count and returns a closure
// that fails the test if the count has not returned to the baseline
// (retrying: connection teardown finishes shortly after Close returns).
func checkGoroutines(t *testing.T) func() {
	t.Helper()
	before := runtime.NumGoroutine()
	return func() {
		t.Helper()
		var after int
		for i := 0; i < 100; i++ {
			after = runtime.NumGoroutine()
			if after <= before {
				return
			}
			time.Sleep(10 * time.Millisecond)
		}
		t.Errorf("goroutine leak: %d before, %d after", before, after)
	}
}

// newTestServer builds a started fleet behind a listening ingest server
// on loopback. Cleanup closes server then fleet (the documented drain
// order).
func newTestServer(t *testing.T, fcfg fleet.Config, scfg Config) (*fleet.Fleet, *Server, string) {
	t.Helper()
	f, err := fleet.New(fcfg)
	if err != nil {
		t.Fatalf("fleet.New: %v", err)
	}
	if err := f.Start(); err != nil {
		t.Fatalf("fleet.Start: %v", err)
	}
	srv := New(f, scfg)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	t.Cleanup(func() {
		srv.Close()
		f.Close()
	})
	return f, srv, addr.String()
}

func testFleetConfig(sessions int) fleet.Config {
	return fleet.Config{Sessions: sessions, Shards: 4, Seed: 42, QueueDepth: 256}
}

// observeSync queues one observation and drains the pipeline: nil once
// the server accepted it, a *RemoteError when it refused it.
func observeSync(cli *Client, at time.Duration, vals []float64) error {
	if err := cli.ObserveQueued(at, vals); err != nil {
		return err
	}
	return cli.Flush()
}

// oneItem is a hand-built one-observation OBSERVE_BATCH frame.
func oneItem(seq uint64, at int64, vals []float64) *wire.Frame {
	return &wire.Frame{Type: wire.ObserveBatch, Batch: []wire.BatchObs{{Seq: seq, At: at, Vals: vals}}}
}

// TestLoopbackAccounting pins the serving invariant end to end for
// one-observation frames with one frame in flight: over a full concurrent
// load, sent == acked + nacked on the client side,
// client acks == server Accepted == fleet-applied observations, and no
// goroutine outlives the teardown.
func TestLoopbackAccounting(t *testing.T) {
	leak := checkGoroutines(t)
	const sessions, obs = 16, 50
	f, srv, addr := newTestServer(t, testFleetConfig(sessions), Config{})
	cfg := LoadConfig{
		Addr: addr, Sessions: sessions, Obs: obs,
		Dim: f.FeatureDim(), Seed: 7,
	}
	res, err := RunLoad(cfg)
	if err != nil {
		t.Fatalf("RunLoad: %v", err)
	}
	if res.Acked != sessions*obs {
		t.Errorf("acked %d, want %d", res.Acked, sessions*obs)
	}
	if res.Sent != res.Acked+res.Nacked {
		t.Errorf("sent %d != acked %d + nacked %d", res.Sent, res.Acked, res.Nacked)
	}
	srv.Close()
	f.Close() // drain: every ACKed observation must reach its session
	c := srv.Counters()
	if c.Accepted != res.Acked || c.Nacked != res.Nacked {
		t.Errorf("server counters (accepted %d, nacked %d) != client (acked %d, nacked %d)",
			c.Accepted, c.Nacked, res.Acked, res.Nacked)
	}
	if c.BatchesIn != c.BatchObs {
		t.Errorf("batches_in %d != batch_obs %d: want one observation per frame", c.BatchesIn, c.BatchObs)
	}
	if c.Hellos != sessions || c.ConnsTotal != sessions {
		t.Errorf("hellos %d conns_total %d, want %d", c.Hellos, c.ConnsTotal, sessions)
	}
	st := f.Stats()
	if st.Observations+st.LateDrops != c.Accepted {
		t.Errorf("fleet observations %d + late drops %d != accepted %d",
			st.Observations, st.LateDrops, c.Accepted)
	}
	if st.Drops != res.Nacked {
		t.Errorf("fleet drops %d != client nacks %d", st.Drops, res.Nacked)
	}
	if c.Conns != 0 {
		t.Errorf("conns gauge %d after close, want 0", c.Conns)
	}
	leak()
}

// rawDial opens a plain TCP connection and returns a send/expect pair
// for hand-built frames — the misbehaving-client harness.
func rawDial(t *testing.T, addr string) (net.Conn, func(*wire.Frame), func() *wire.Frame) {
	t.Helper()
	nc, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	t.Cleanup(func() { nc.Close() })
	var sp wire.Splitter
	buf := make([]byte, 4096)
	send := func(f *wire.Frame) {
		t.Helper()
		b, err := wire.Append(nil, f)
		if err != nil {
			t.Fatalf("encode: %v", err)
		}
		if _, err := nc.Write(b); err != nil {
			t.Fatalf("write: %v", err)
		}
	}
	recv := func() *wire.Frame {
		t.Helper()
		var f wire.Frame
		for {
			ok, err := sp.Next(&f)
			if err != nil {
				t.Fatalf("split: %v", err)
			}
			if ok {
				return &f
			}
			nc.SetReadDeadline(time.Now().Add(5 * time.Second))
			n, err := nc.Read(buf)
			if n > 0 {
				if err := sp.Feed(buf[:n]); err != nil {
					t.Fatalf("feed: %v", err)
				}
				continue
			}
			if err != nil {
				t.Fatalf("read: %v", err)
			}
		}
	}
	return nc, send, recv
}

func helloFrame(session int, dim int) *wire.Frame {
	return &wire.Frame{Type: wire.Hello, Version: wire.Version, Session: uint64(session), Dim: uint16(dim)}
}

// TestHelloErrors pins every handshake refusal to its wire code.
func TestHelloErrors(t *testing.T) {
	leak := checkGoroutines(t)
	f, srv, addr := newTestServer(t, testFleetConfig(4), Config{})
	dim := f.FeatureDim()

	t.Run("wrong version", func(t *testing.T) {
		_, send, recv := rawDial(t, addr)
		h := helloFrame(0, dim)
		h.Version = wire.Version + 9
		send(h)
		if r := recv(); r.Type != wire.Err || r.Code != wire.CodeVersion {
			t.Fatalf("got %s code %d, want ERR CodeVersion", r.Type, r.Code)
		}
	})
	t.Run("unknown session", func(t *testing.T) {
		_, send, recv := rawDial(t, addr)
		send(helloFrame(9999, dim))
		if r := recv(); r.Type != wire.Err || r.Code != wire.CodeUnknownSession {
			t.Fatalf("got %s code %d, want ERR CodeUnknownSession", r.Type, r.Code)
		}
	})
	t.Run("parked session", func(t *testing.T) {
		if err := f.Disconnect(1); err != nil {
			t.Fatal(err)
		}
		defer f.Reconnect(1)
		_, send, recv := rawDial(t, addr)
		send(helloFrame(1, dim))
		if r := recv(); r.Type != wire.Err || r.Code != wire.CodeUnknownSession {
			t.Fatalf("got %s code %d, want ERR CodeUnknownSession for parked session", r.Type, r.Code)
		}
	})
	t.Run("wrong dim", func(t *testing.T) {
		_, send, recv := rawDial(t, addr)
		send(helloFrame(0, dim+1))
		if r := recv(); r.Type != wire.Err || r.Code != wire.CodeDim {
			t.Fatalf("got %s code %d, want ERR CodeDim", r.Type, r.Code)
		}
	})
	t.Run("observe before hello", func(t *testing.T) {
		_, send, recv := rawDial(t, addr)
		send(oneItem(1, 1, make([]float64, dim)))
		if r := recv(); r.Type != wire.Err || r.Code != wire.CodeBadFrame {
			t.Fatalf("got %s code %d, want ERR CodeBadFrame", r.Type, r.Code)
		}
	})
	t.Run("dial helper surfaces refusal", func(t *testing.T) {
		if _, err := Dial(addr, 9999, dim, time.Second); err == nil {
			t.Fatal("Dial of unknown session succeeded")
		}
	})
	// Each refusal is counted before its ERR is queued. The unknown,
	// parked, wrong-dim and Dial-helper HELLOs are refusals; the version
	// skew and the frame before HELLO are protocol errors.
	if c := srv.Counters(); c.HelloRefused != 4 || c.ProtocolErrors != 2 || c.Hellos != 0 {
		t.Errorf("hello_refused %d protocol_errors %d hellos %d, want 4, 2, 0",
			c.HelloRefused, c.ProtocolErrors, c.Hellos)
	}
	srv.Close()
	f.Close()
	leak()
}

// TestAbruptDisconnectMidFrame kills a connection with half a frame on
// the wire: the server must count the reset, leak nothing, and keep
// serving other clients on the same listener.
func TestAbruptDisconnectMidFrame(t *testing.T) {
	leak := checkGoroutines(t)
	f, srv, addr := newTestServer(t, testFleetConfig(4), Config{})
	dim := f.FeatureDim()

	nc, send, recv := rawDial(t, addr)
	send(helloFrame(0, dim))
	if r := recv(); r.Type != wire.Ack {
		t.Fatalf("handshake: got %s", r.Type)
	}
	// One full observation, then 7 bytes of the next frame, then gone.
	full, err := wire.Append(nil, oneItem(1, 1, make([]float64, dim)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := nc.Write(full); err != nil {
		t.Fatal(err)
	}
	if r := recv(); r.Type != wire.AckBatch || r.Seq != 1 {
		t.Fatalf("got %s seq %d, want ACK_BATCH 1", r.Type, r.Seq)
	}
	var head [8]byte
	binary.LittleEndian.PutUint32(head[:4], uint32(len(full))-4)
	if _, err := nc.Write(head[:7]); err != nil {
		t.Fatal(err)
	}
	nc.Close()

	// The reset is observed asynchronously; the server must stay usable.
	cli, err := Dial(addr, 1, dim, 5*time.Second)
	if err != nil {
		t.Fatalf("second client: %v", err)
	}
	if err := observeSync(cli, time.Millisecond, make([]float64, dim)); err != nil {
		t.Fatalf("second client observe: %v", err)
	}
	cli.Close()

	deadline := time.Now().Add(5 * time.Second)
	for srv.Counters().MidFrameResets == 0 {
		if time.Now().After(deadline) {
			t.Fatal("mid-frame reset never counted")
		}
		time.Sleep(5 * time.Millisecond)
	}
	srv.Close()
	f.Close()
	if c := srv.Counters(); c.Accepted != 2 {
		t.Errorf("accepted %d, want 2", c.Accepted)
	}
	leak()
}

// TestSlowReaderBackpressure floods a connection with snapshot requests
// while never reading the (large) replies: the bounded write queue plus
// the write deadline must kill the connection instead of wedging the
// server, and other clients must remain unaffected.
func TestSlowReaderBackpressure(t *testing.T) {
	leak := checkGoroutines(t)
	f, srv, addr := newTestServer(t, testFleetConfig(4),
		Config{WriteQueue: 4, WriteTimeout: 100 * time.Millisecond})
	dim := f.FeatureDim()

	nc, send, recv := rawDial(t, addr)
	send(helloFrame(0, dim))
	if r := recv(); r.Type != wire.Ack {
		t.Fatalf("handshake: got %s", r.Type)
	}
	// Flood without reading. Replies pile into the socket buffers, then
	// the 4-frame queue, then the connection dies (slow kill or write
	// timeout — both count). Client writes fail once the server resets.
	nc.SetWriteDeadline(time.Now().Add(10 * time.Second))
	req, err := wire.Append(nil, &wire.Frame{Type: wire.SnapshotReq, Seq: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200000; i++ {
		if _, err := nc.Write(req); err != nil {
			break
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		c := srv.Counters()
		if c.SlowKills+c.WriteErrors > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("slow reader never killed: %+v", c)
		}
		time.Sleep(10 * time.Millisecond)
	}
	// The server still serves a well-behaved client.
	cli, err := Dial(addr, 1, dim, 5*time.Second)
	if err != nil {
		t.Fatalf("healthy client: %v", err)
	}
	if err := observeSync(cli, time.Millisecond, make([]float64, dim)); err != nil {
		t.Fatalf("healthy observe: %v", err)
	}
	cli.Close()
	srv.Close()
	f.Close()
	leak()
}

// TestSlowReaderKillPipe pins reply's full-queue branch without socket
// buffers in the way: over a synchronous net.Pipe whose client never
// reads, the writer blocks on its first reply and the 4-slot queue fills
// behind it. The next reply kills the connection, counted once as a slow
// kill and not also as a write error, and Close still joins every
// goroutine.
func TestSlowReaderKillPipe(t *testing.T) {
	leak := checkGoroutines(t)
	f, err := fleet.New(testFleetConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Start(); err != nil {
		t.Fatal(err)
	}
	srv := New(f, Config{WriteQueue: 4})
	cli, sc := net.Pipe()
	defer cli.Close()
	if !srv.serveConn(sc) {
		t.Fatal("open server refused a connection")
	}
	dim := f.FeatureDim()
	vals := make([]float64, dim)
	frames := 0
	for fr := helloFrame(0, dim); ; fr = oneItem(uint64(frames), int64(frames), vals) {
		b, err := wire.Append(nil, fr)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := cli.Write(b); err != nil {
			break // the server hung up
		}
		if frames++; frames > 64 {
			t.Fatalf("%d frames sent, 4-slot queue never overflowed: %+v", frames, srv.Counters())
		}
	}

	closed := make(chan struct{})
	go func() {
		srv.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("Close did not return after a slow kill")
	}
	f.Close()
	if c := srv.Counters(); c.SlowKills != 1 || c.WriteErrors != 0 || c.Conns != 0 {
		t.Errorf("slow_kills %d write_errors %d conns %d, want 1, 0, 0", c.SlowKills, c.WriteErrors, c.Conns)
	}
	leak()
}

// TestServerCloseDrains pins the drain ordering: every observation ACKed
// before Close is applied to its session once server and fleet have both
// closed, and the listener refuses new work afterwards.
func TestServerCloseDrains(t *testing.T) {
	leak := checkGoroutines(t)
	const obs = 200
	f, srv, addr := newTestServer(t, testFleetConfig(2), Config{})
	dim := f.FeatureDim()
	cli, err := Dial(addr, 0, dim, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	cli.StartBatching(BatchConfig{BatchSize: 1, Window: 1})
	vals := make([]float64, dim)
	for i := 0; i < obs; i++ {
		if err := cli.ObserveQueued(time.Duration(i+1)*time.Millisecond, vals); err != nil {
			t.Fatalf("obs %d: %v", i, err)
		}
	}
	if err := cli.Flush(); err != nil {
		t.Fatal(err)
	}
	acked, _, _ := cli.BatchStats()
	cli.Close()
	srv.Close()
	f.Close()
	st := f.Stats()
	if acked != obs || st.Observations+st.LateDrops != acked {
		t.Errorf("applied %d + late %d != acked %d", st.Observations, st.LateDrops, acked)
	}
	if _, err := Dial(addr, 0, dim, 500*time.Millisecond); err == nil {
		t.Error("dial after Close succeeded")
	}
	if srv.Close() != nil {
		t.Error("second Close errored")
	}
	leak()
}

// TestCloseStopsBusyReader pins Close against clients that never
// pause: pipelined uploaders (batch 64, window 4) keep their readers
// busy with one chunk after another, and Close, called mid-upload, must
// still return within a bound, with no observation admitted after it
// returns. A trial whose Close overruns hangs up its own clients, so a
// regression fails instead of hanging.
func TestCloseStopsBusyReader(t *testing.T) {
	leak := checkGoroutines(t)
	const trials, clients = 20, 4
	const bound = 2 * time.Second
	for trial := 0; trial < trials; trial++ {
		f, err := fleet.New(testFleetConfig(clients))
		if err != nil {
			t.Fatal(err)
		}
		if err := f.Start(); err != nil {
			t.Fatal(err)
		}
		srv := New(f, Config{})
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		dim := f.FeatureDim()
		var clis []*Client
		uploading := make(chan struct{}, clients)
		for id := 0; id < clients; id++ {
			cli, err := Dial(addr.String(), id, dim, 5*time.Second)
			if err != nil {
				t.Fatal(err)
			}
			cli.StartBatching(BatchConfig{BatchSize: 64, Window: 4})
			clis = append(clis, cli)
			go func() {
				defer func() { uploading <- struct{}{} }()
				vals := make([]float64, dim)
				for i := 1; ; i++ {
					if cli.ObserveQueued(time.Duration(i)*time.Microsecond, vals) != nil {
						return // the server hung up
					}
				}
			}()
		}
		hangUp := func() {
			for _, cli := range clis {
				cli.Close()
			}
		}
		time.Sleep(20 * time.Millisecond)
		closed := make(chan struct{})
		go func() {
			srv.Close()
			close(closed)
		}()
		select {
		case <-closed:
		case <-time.After(bound):
			t.Errorf("trial %d: Close still blocked %v after it was called", trial, bound)
			hangUp()
			<-closed
		}
		accepted := srv.Counters().Accepted
		hangUp()
		for range clis {
			<-uploading
		}
		if got := srv.Counters().Accepted; got != accepted {
			t.Errorf("trial %d: %d observations admitted after Close returned", trial, got-accepted)
		}
		f.Close()
		if t.Failed() {
			break
		}
	}
	leak()
}

// TestSnapshotOverTCP round-trips a session through the wire snapshot
// path: SNAPSHOT_REQ (which first drains the client's queued
// observations) → remove → RestoreSession(bytes) revives it, and the
// revived session accepts traffic again over a fresh connection.
func TestSnapshotOverTCP(t *testing.T) {
	leak := checkGoroutines(t)
	f, srv, addr := newTestServer(t, testFleetConfig(2), Config{})
	dim := f.FeatureDim()
	cli, err := Dial(addr, 0, dim, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	vals := make([]float64, dim)
	for i := 0; i < 10; i++ {
		if err := cli.ObserveQueued(time.Duration(i+1)*time.Millisecond, vals); err != nil {
			t.Fatalf("observe %d: %v", i, err)
		}
	}
	snap, err := cli.Snapshot()
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	if len(snap) == 0 {
		t.Fatal("empty snapshot")
	}
	keep := append([]byte(nil), snap...) // reply buffer is reused
	if acked, _, _ := cli.BatchStats(); acked != 10 {
		t.Fatalf("snapshot taken with %d of 10 queued observations accepted", acked)
	}
	cli.Close()

	if err := f.RemoveSession(0); err != nil {
		t.Fatal(err)
	}
	if f.Connected(0) {
		t.Fatal("session 0 still connected after remove")
	}
	if err := f.RestoreSession(bytes.NewReader(keep)); err != nil {
		t.Fatalf("RestoreSession: %v", err)
	}
	if !f.Connected(0) {
		t.Fatal("session 0 not connected after restore")
	}
	cli2, err := Dial(addr, 0, dim, 5*time.Second)
	if err != nil {
		t.Fatalf("dial restored session: %v", err)
	}
	if err := observeSync(cli2, 20*time.Millisecond, vals); err != nil {
		t.Fatalf("observe restored session: %v", err)
	}
	cli2.Close()
	srv.Close()
	f.Close()
	if c := srv.Counters(); c.SnapshotReqs != 1 {
		t.Errorf("snapshot_reqs %d, want 1", c.SnapshotReqs)
	}
	leak()
}

// TestObserveDimMismatch pins the kept-connection refusal: a wrong-width
// observation is rejected with CodeDim and the connection keeps working.
func TestObserveDimMismatch(t *testing.T) {
	f, _, addr := newTestServer(t, testFleetConfig(2), Config{})
	dim := f.FeatureDim()
	cli, err := Dial(addr, 0, dim, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	err = observeSync(cli, time.Millisecond, make([]float64, dim+3))
	var re *RemoteError
	if !errors.As(err, &re) || re.Code != wire.CodeDim {
		t.Fatalf("got %v, want RemoteError CodeDim", err)
	}
	if re.Msg == "" || !strings.Contains(re.Error(), re.Msg) {
		t.Fatalf("RemoteError.Error() %q lost the server's message %q", re.Error(), re.Msg)
	}
	if err := observeSync(cli, 2*time.Millisecond, make([]float64, dim)); err != nil {
		t.Fatalf("connection dead after dim refusal: %v", err)
	}
}

// expectEOF reads until the server closes the connection.
func expectEOF(t *testing.T, nc net.Conn) {
	t.Helper()
	nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, 64)
	for {
		if _, err := nc.Read(buf); err != nil {
			if !errors.Is(err, io.EOF) {
				t.Fatalf("got %v, want EOF", err)
			}
			return
		}
	}
}

// TestVersion1Refusals pins how a protocol-version-1 peer is turned away:
// its HELLO draws ERR CodeVersion, and its per-observation frame types
// (0x02 OBSERVE, 0x03 OBSERVE_CHUNK) are unassigned since version 2, so
// after a good HELLO either one draws ERR CodeBadFrame. Every refusal
// closes the connection and counts as a protocol error.
func TestVersion1Refusals(t *testing.T) {
	f, srv, addr := newTestServer(t, testFleetConfig(4), Config{})
	dim := f.FeatureDim()

	t.Run("version 1 hello", func(t *testing.T) {
		nc, send, recv := rawDial(t, addr)
		h := helloFrame(0, dim)
		h.Version = 1
		send(h)
		if r := recv(); r.Type != wire.Err || r.Code != wire.CodeVersion {
			t.Fatalf("got %s code %d, want ERR CodeVersion", r.Type, r.Code)
		}
		expectEOF(t, nc)
	})
	for _, typ := range []byte{0x02, 0x03} {
		t.Run(fmt.Sprintf("type 0x%02x", typ), func(t *testing.T) {
			nc, send, recv := rawDial(t, addr)
			send(helloFrame(1, dim))
			if r := recv(); r.Type != wire.Ack {
				t.Fatalf("handshake: got %s", r.Type)
			}
			// Type byte, then a version-1 seq/at/count header with no values.
			body := append([]byte{typ}, make([]byte, 18)...)
			if _, err := nc.Write(append(binary.LittleEndian.AppendUint32(nil, uint32(len(body))), body...)); err != nil {
				t.Fatal(err)
			}
			if r := recv(); r.Type != wire.Err || r.Code != wire.CodeBadFrame {
				t.Fatalf("got %s code %d, want ERR CodeBadFrame", r.Type, r.Code)
			}
			expectEOF(t, nc)
		})
	}
	if got := srv.Counters().ProtocolErrors; got != 3 {
		t.Errorf("protocol_errors %d, want 3", got)
	}
}
