package server

import (
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"affectedge/internal/obs"
	"affectedge/internal/wire"
)

func TestTruncMsg(t *testing.T) {
	if got := truncMsg("short"); got != "short" {
		t.Fatalf("short message mangled: %q", got)
	}
	long := strings.Repeat("x", wire.MaxMsg+100)
	if got := truncMsg(long); len(got) != wire.MaxMsg {
		t.Fatalf("truncated to %d bytes, want %d", len(got), wire.MaxMsg)
	}
}

func TestIsBackpressure(t *testing.T) {
	re := &RemoteError{Code: wire.CodeBackpressure, Seq: 7, Msg: "queue full"}
	if !IsBackpressure(re) {
		t.Fatal("bare backpressure RemoteError not recognized")
	}
	if !IsBackpressure(fmt.Errorf("observe: %w", re)) {
		t.Fatal("wrapped backpressure RemoteError not recognized")
	}
	if IsBackpressure(nil) {
		t.Fatal("nil is not backpressure")
	}
	if IsBackpressure(errors.New("plain")) {
		t.Fatal("plain error is not backpressure")
	}
	if IsBackpressure(&RemoteError{Code: wire.CodeDim}) {
		t.Fatal("dim refusal is not backpressure")
	}
	if msg := re.Error(); !strings.Contains(msg, "queue full") {
		t.Fatalf("RemoteError.Error() lost the message: %q", msg)
	}
}

func TestListenErrors(t *testing.T) {
	f, srv, _ := newTestServer(t, testFleetConfig(2), Config{})
	if srv.Addr() == nil {
		t.Fatal("Addr nil after Listen")
	}
	bad := New(f, Config{})
	if _, err := bad.Listen("256.256.256.256:0"); err == nil {
		t.Fatal("Listen on a bogus address succeeded")
	}
}

// TestClientSeq pins that the client's sequence counter advances once
// per accepted observation — the value retries reuse.
func TestClientSeq(t *testing.T) {
	f, _, addr := newTestServer(t, testFleetConfig(2), Config{})
	dim := f.FeatureDim()
	cli, err := Dial(addr, 0, dim, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	if got := cli.Seq(); got != 0 {
		t.Fatalf("fresh client at seq %d, want 0", got)
	}
	if err := observeSync(cli, time.Millisecond, make([]float64, dim)); err != nil {
		t.Fatal(err)
	}
	if got := cli.Seq(); got != 1 {
		t.Fatalf("after one observe at seq %d, want 1", got)
	}
}

// TestServeControlStartStop covers the convenience launcher: the control
// plane comes up on an ephemeral port and Close surfaces ErrServerClosed
// on the error channel (handler behavior itself is pinned in http_test).
func TestServeControlStartStop(t *testing.T) {
	_, srv, _ := newTestServer(t, testFleetConfig(2), Config{})
	hsrv, errc := srv.ServeControl("127.0.0.1:0", nil)
	time.Sleep(20 * time.Millisecond) // let ListenAndServe bind before Close
	hsrv.Close()
	select {
	case err := <-errc:
		if !errors.Is(err, http.ErrServerClosed) {
			t.Fatalf("got %v, want http.ErrServerClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("ServeControl goroutine never exited")
	}
}

// TestWireMetricsWiring proves the explicit metrics seam: once wired to
// a registry scope, the package handles feed named counters, and the
// names match the Counters JSON tags an operator sees on /counters.
func TestWireMetricsWiring(t *testing.T) {
	reg := obs.NewRegistry()
	WireMetrics(reg.Scope("server"))

	f, srv, addr := newTestServer(t, testFleetConfig(2), Config{})
	dim := f.FeatureDim()
	cli, err := Dial(addr, 0, dim, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if err := observeSync(cli, time.Millisecond, make([]float64, dim)); err != nil {
		t.Fatal(err)
	}
	cli.Close()
	// Rewiring the global handles while connection goroutines run would
	// race; quiesce the server first (Close waits them out), then restore
	// the no-op handles for the rest of the suite.
	srv.Close()
	f.Close()
	WireMetrics(nil)
	if v := reg.Counter("server.hellos").Value(); v < 1 {
		t.Fatalf("server.hellos = %d, want >= 1", v)
	}
	if v := reg.Counter("server.accepted").Value(); v < 1 {
		t.Fatalf("server.accepted = %d, want >= 1", v)
	}
	if v := reg.Counter("server.frames_in").Value(); v < 2 {
		t.Fatalf("server.frames_in = %d, want >= 2 (HELLO + OBSERVE_BATCH)", v)
	}
}

// TestObserveUnknownSession pins the dispatch mapping for a session that
// disappears mid-connection: typed ERR, connection kept (the session may
// be restored), and both the observation and snapshot paths agree.
func TestObserveUnknownSession(t *testing.T) {
	f, _, addr := newTestServer(t, testFleetConfig(2), Config{})
	dim := f.FeatureDim()
	_, send, recv := rawDial(t, addr)
	send(helloFrame(0, dim))
	if r := recv(); r.Type != wire.Ack {
		t.Fatalf("handshake: got %s", r.Type)
	}
	if err := f.RemoveSession(0); err != nil {
		t.Fatal(err)
	}
	vals := make([]float64, dim)
	send(oneItem(1, 1, vals))
	if r := recv(); r.Type != wire.Err || r.Code != wire.CodeUnknownSession || r.Seq != 1 {
		t.Fatalf("got %s code %d, want ERR CodeUnknownSession", r.Type, r.Code)
	}
	// The connection survives the refusal: a snapshot request for the
	// same missing session draws the same typed ERR, not an EOF.
	send(&wire.Frame{Type: wire.SnapshotReq, Seq: 2})
	if r := recv(); r.Type != wire.Err || r.Code != wire.CodeUnknownSession || r.Seq != 2 {
		t.Fatalf("got %s code %d, want ERR CodeUnknownSession", r.Type, r.Code)
	}
}

// TestObserveClosedFleet pins the terminal mapping: a closed fleet draws
// ERR CodeClosed and the server hangs up after flushing it.
func TestObserveClosedFleet(t *testing.T) {
	f, _, addr := newTestServer(t, testFleetConfig(2), Config{})
	dim := f.FeatureDim()
	nc, send, recv := rawDial(t, addr)
	send(helloFrame(0, dim))
	if r := recv(); r.Type != wire.Ack {
		t.Fatalf("handshake: got %s", r.Type)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	send(oneItem(1, 1, make([]float64, dim)))
	if r := recv(); r.Type != wire.Err || r.Code != wire.CodeClosed {
		t.Fatalf("got %s code %d, want ERR CodeClosed", r.Type, r.Code)
	}
	// Drain-on-close flushed the ERR; the next read is EOF.
	nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, 64)
	for {
		_, err := nc.Read(buf)
		if err != nil {
			if !errors.Is(err, io.EOF) {
				t.Fatalf("got %v after CodeClosed, want EOF", err)
			}
			break
		}
	}
}

// TestClosedFleetAccounting closes the fleet under an open connection
// and sends a multi-item batch: the refused items must land in Rejected,
// so every observation a batch carried is still exactly one of
// Accepted, Nacked or Rejected.
func TestClosedFleetAccounting(t *testing.T) {
	f, srv, addr := newTestServer(t, testFleetConfig(2), Config{})
	dim := f.FeatureDim()
	_, send, recv := rawDial(t, addr)
	send(helloFrame(0, dim))
	if r := recv(); r.Type != wire.Ack {
		t.Fatalf("handshake: got %s", r.Type)
	}
	send(oneItem(1, 1, make([]float64, dim)))
	if r := recv(); r.Type != wire.AckBatch {
		t.Fatalf("open fleet: got %s, want ACK_BATCH", r.Type)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	batch := &wire.Frame{Type: wire.ObserveBatch}
	for i := 0; i < 5; i++ {
		batch.Batch = append(batch.Batch, wire.BatchObs{Seq: uint64(2 + i), At: int64(2 + i), Vals: make([]float64, dim)})
	}
	send(batch)
	if r := recv(); r.Type != wire.Err || r.Code != wire.CodeClosed {
		t.Fatalf("got %s code %d, want ERR CodeClosed", r.Type, r.Code)
	}
	c := srv.Counters()
	if c.BatchObs != 6 || c.Accepted != 1 || c.Rejected != 5 {
		t.Fatalf("batch_obs %d accepted %d rejected %d, want 6, 1, 5", c.BatchObs, c.Accepted, c.Rejected)
	}
	if sum := c.Accepted + c.Nacked + c.Rejected; sum != c.BatchObs {
		t.Fatalf("accepted+nacked+rejected = %d, batch_obs %d", sum, c.BatchObs)
	}
}

// TestHelloSessionOutOfRange covers the id guard: a session id beyond
// int64 can never name a fleet session, so it refuses as unknown.
func TestHelloSessionOutOfRange(t *testing.T) {
	f, _, addr := newTestServer(t, testFleetConfig(2), Config{})
	dim := f.FeatureDim()
	_, send, recv := rawDial(t, addr)
	send(&wire.Frame{Type: wire.Hello, Version: wire.Version, Session: math.MaxUint64, Dim: uint16(dim)})
	if r := recv(); r.Type != wire.Err || r.Code != wire.CodeUnknownSession {
		t.Fatalf("got %s code %d, want ERR CodeUnknownSession", r.Type, r.Code)
	}
}

// TestProtocolViolations pins the hangup cases: a second HELLO and a
// server-only frame type both draw ERR CodeBadFrame and lose the
// connection.
func TestProtocolViolations(t *testing.T) {
	f, _, addr := newTestServer(t, testFleetConfig(2), Config{})
	dim := f.FeatureDim()

	t.Run("duplicate hello", func(t *testing.T) {
		_, send, recv := rawDial(t, addr)
		send(helloFrame(0, dim))
		if r := recv(); r.Type != wire.Ack {
			t.Fatalf("handshake: got %s", r.Type)
		}
		send(helloFrame(0, dim))
		if r := recv(); r.Type != wire.Err || r.Code != wire.CodeBadFrame {
			t.Fatalf("got %s code %d, want ERR CodeBadFrame", r.Type, r.Code)
		}
	})
	t.Run("client sends ack", func(t *testing.T) {
		_, send, recv := rawDial(t, addr)
		send(helloFrame(1, dim))
		if r := recv(); r.Type != wire.Ack {
			t.Fatalf("handshake: got %s", r.Type)
		}
		send(&wire.Frame{Type: wire.Ack, Seq: 9})
		if r := recv(); r.Type != wire.Err || r.Code != wire.CodeBadFrame {
			t.Fatalf("got %s code %d, want ERR CodeBadFrame", r.Type, r.Code)
		}
	})
}

func TestLoadConfigErrors(t *testing.T) {
	if _, err := RunLoad(LoadConfig{}); err == nil {
		t.Fatal("RunLoad accepted an empty config")
	}
	if _, err := DirectLoad(nil, LoadConfig{}); err == nil {
		t.Fatal("DirectLoad accepted an empty config")
	}
}

// TestRunLoadDialFailure pins the generator's error discipline: a dead
// address fails the run with a session-tagged error instead of hanging.
func TestRunLoadDialFailure(t *testing.T) {
	// Grab a loopback port with no listener behind it.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	_, err = RunLoad(LoadConfig{Addr: addr, Sessions: 2, Obs: 1, Dim: 4, Timeout: 2 * time.Second})
	if err == nil {
		t.Fatal("RunLoad against a dead address succeeded")
	}
}

// TestRunLoadLatency pins the latency seam: every round trip lands one
// histogram sample, so quantiles are computed over sent, not acked.
func TestRunLoadLatency(t *testing.T) {
	f, _, addr := newTestServer(t, testFleetConfig(4), Config{})
	reg := obs.NewRegistry()
	hist := reg.Histogram("loadgen.rtt_us", obs.ExponentialBuckets(1, 2, 24))
	res, err := RunLoad(LoadConfig{
		Addr: addr, Sessions: 4, Obs: 5, Dim: f.FeatureDim(),
		Seed: 11, Latency: hist,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Acked != 20 {
		t.Fatalf("acked %d, want 20", res.Acked)
	}
	if got := hist.Count(); got != res.Sent {
		t.Fatalf("histogram holds %d samples, want %d (one per round trip)", got, res.Sent)
	}
	snap, ok := reg.Snapshot().Histogram("loadgen.rtt_us")
	if !ok || snap.Quantile(0.5) < 0 {
		t.Fatal("latency quantile unavailable from snapshot")
	}
}
