package server

import (
	"encoding/json"
	"errors"
	"io"
	"math"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"affectedge/internal/fleet"
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

// TestWireMetricsWiring proves the explicit metrics seam: a server built
// under a wired scope registers every counter it reports, named as its
// Counters JSON tag, and the registry and /counters agree value for
// value. Unwiring afterwards leaves the built server's handles in place.
func TestWireMetricsWiring(t *testing.T) {
	reg := obs.NewRegistry()
	WireMetrics(reg.Scope("server"))
	f, srv, addr := newTestServer(t, testFleetConfig(2), Config{})
	WireMetrics(nil)
	dim := f.FeatureDim()
	cli, err := Dial(addr, 0, dim, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if err := observeSync(cli, time.Millisecond, make([]float64, dim)); err != nil {
		t.Fatal(err)
	}
	cli.Close()
	srv.Close()
	b, err := json.Marshal(srv.Counters())
	if err != nil {
		t.Fatal(err)
	}
	var counters map[string]int64
	if err := json.Unmarshal(b, &counters); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	if len(snap.Counters)+len(snap.Gauges) != len(counters) {
		t.Errorf("registry holds %d counters and %d gauges, Counters has %d fields",
			len(snap.Counters), len(snap.Gauges), len(counters))
	}
	for tag, want := range counters {
		got := snap.Counter("server." + tag)
		if tag == "conns" {
			got = snap.Gauge("server." + tag)
		}
		if got != want {
			t.Errorf("server.%s = %d, Counters says %d", tag, got, want)
		}
	}
	if counters["hellos"] != 1 || counters["accepted"] != 1 || counters["frames_in"] != 2 {
		t.Errorf("hellos %d accepted %d frames_in %d, want 1, 1, 2 (HELLO + OBSERVE_BATCH)",
			counters["hellos"], counters["accepted"], counters["frames_in"])
	}
}

// TestInstanceMetricsDisjoint serves different traffic through two
// fleet+server pairs wired to distinct scopes and one unwired pair, all
// in one process: every scope, Counters and Stats reports its own pair
// alone.
func TestInstanceMetricsDisjoint(t *testing.T) {
	type pair struct {
		reg           *obs.Registry // nil: built unwired
		sessions, obs int
		f             *fleet.Fleet
		srv           *Server
		addr          string
	}
	pairs := []*pair{{reg: obs.NewRegistry(), sessions: 2, obs: 3}, {reg: obs.NewRegistry(), sessions: 3, obs: 5}, {sessions: 4, obs: 7}}
	for _, p := range pairs {
		fleet.WireMetrics(p.reg.Scope("fleet"))
		WireMetrics(p.reg.Scope("server"))
		p.f, p.srv, p.addr = newTestServer(t, testFleetConfig(p.sessions), Config{})
	}
	fleet.WireMetrics(nil)
	WireMetrics(nil)
	dim := pairs[0].f.FeatureDim()
	for _, p := range pairs {
		for id := 0; id < p.sessions; id++ {
			cli, err := Dial(p.addr, id, dim, 5*time.Second)
			if err != nil {
				t.Fatal(err)
			}
			for k := 0; k < p.obs; k++ {
				if err := observeSync(cli, time.Duration(k+1)*time.Millisecond, make([]float64, dim)); err != nil {
					t.Fatal(err)
				}
			}
			cli.Close()
		}
		p.srv.Close()
		p.f.Close()
	}
	for i, p := range pairs {
		n := int64(p.sessions * p.obs)
		c, st := p.srv.Counters(), p.f.Stats()
		if c.Accepted != n || c.BatchObs != n || c.Hellos != int64(p.sessions) || st.Observations != n || st.Sessions != p.sessions {
			t.Errorf("pair %d: accepted %d batch_obs %d hellos %d observations %d sessions %d, want %d %d %d %d %d",
				i, c.Accepted, c.BatchObs, c.Hellos, st.Observations, st.Sessions, n, n, p.sessions, n, p.sessions)
		}
		if p.reg == nil {
			continue
		}
		snap := p.reg.Snapshot()
		if a, in, h := snap.Counter("server.accepted"), snap.Counter("fleet.ingress"), snap.Counter("server.hellos"); a != n || in != n || h != int64(p.sessions) {
			t.Errorf("pair %d scope: server.accepted %d fleet.ingress %d server.hellos %d, want %d %d %d",
				i, a, in, h, n, n, p.sessions)
		}
		if g := snap.Gauge("fleet.sessions"); g != int64(p.sessions) {
			t.Errorf("pair %d scope: fleet.sessions %d, want %d", i, g, p.sessions)
		}
	}
}

// TestSequentialServersOneScope is the shape of a benchmark that wires
// one scope once and builds a fresh fleet and server per trial: the
// second server's Counters start at zero, the scope reports the newest
// pair alone, and a Registry.Reset mid-run moves neither Counters nor
// the fleet's fingerprint.
func TestSequentialServersOneScope(t *testing.T) {
	reg := obs.NewRegistry()
	fleet.WireMetrics(reg.Scope("fleet"))
	WireMetrics(reg.Scope("server"))
	defer fleet.WireMetrics(nil)
	defer WireMetrics(nil)
	for trial, sent := range []int{5, 3} {
		f, srv, addr := newTestServer(t, testFleetConfig(1), Config{})
		if c := srv.Counters(); c != (Counters{}) {
			t.Fatalf("trial %d: fresh server counters %+v, want zero", trial, c)
		}
		cli, err := Dial(addr, 0, f.FeatureDim(), 5*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		for k := 0; k < sent; k++ {
			if k == 2 {
				reg.Reset() // mid-run: the instances' own handles keep counting
			}
			if err := observeSync(cli, time.Duration(k+1)*time.Millisecond, make([]float64, f.FeatureDim())); err != nil {
				t.Fatal(err)
			}
		}
		cli.Close()
		srv.Close()
		f.Close()
		c := srv.Counters()
		if c.Accepted != int64(sent) || c.FramesIn != int64(sent+1) || c.Hellos != 1 {
			t.Errorf("trial %d: accepted %d frames_in %d hellos %d, want %d, %d, 1",
				trial, c.Accepted, c.FramesIn, c.Hellos, sent, sent+1)
		}
		fp := f.Stats().Fingerprint()
		reg.Reset()
		if srv.Counters() != c || f.Stats().Fingerprint() != fp {
			t.Errorf("trial %d: Registry.Reset moved Counters or the fingerprint", trial)
		}
		snap := reg.Snapshot()
		if a, in := snap.Counter("server.accepted"), snap.Counter("fleet.ingress"); a != int64(sent) || in != int64(sent) {
			t.Errorf("trial %d: server.accepted %d fleet.ingress %d, want %d", trial, a, in, sent)
		}
	}
}

// flakyListener fails its first fails Accept calls, then delegates.
type flakyListener struct {
	net.Listener
	fails int // touched only by the accept loop
}

func (l *flakyListener) Accept() (net.Conn, error) {
	if l.fails > 0 {
		l.fails--
		return nil, errors.New("transient accept failure")
	}
	return l.Listener.Accept()
}

// TestAcceptErrorsCounted feeds the accept loop one transient Accept
// failure: it lands in AcceptErrors, not ReadErrors, and the loop keeps
// serving.
func TestAcceptErrorsCounted(t *testing.T) {
	f, err := fleet.New(testFleetConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Start(); err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := New(f, Config{})
	srv.ln = &flakyListener{Listener: ln, fails: 1}
	srv.wg.Add(1)
	go srv.acceptLoop()
	defer srv.Close()
	cli, err := Dial(ln.Addr().String(), 0, f.FeatureDim(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	cli.Close()
	if c := srv.Counters(); c.AcceptErrors != 1 || c.ReadErrors != 0 || c.Hellos != 1 {
		t.Errorf("accept_errors %d read_errors %d hellos %d, want 1, 0, 1", c.AcceptErrors, c.ReadErrors, c.Hellos)
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
