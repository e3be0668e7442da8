// Package server makes the fleet a network service: a TCP ingest server
// speaking the internal/wire frame protocol, an HTTP control/metrics
// plane (http.go), a synchronous protocol client (client.go), and a
// load generator that drives thousands of concurrent sessions over
// loopback (loadgen.go).
//
// Connection model — one connection is one session:
//
//   - The first frame must be a HELLO carrying the protocol magic and
//     version and the session id the connection authenticates as. A
//     wrong version, an unknown/parked session, or a dimensionality
//     mismatch is refused with a typed ERR and the connection closes.
//   - Every OBSERVE_BATCH after that belongs to the authenticated
//     session and is submitted through fleet.ObserveBatch; a single
//     observation is a one-item batch. The fleet's non-blocking ingest
//     contract surfaces on the wire: the ACK_BATCH reply NACKs exactly
//     the items a full shard queue (fleet.ErrBackpressure) turned away —
//     the client retries those, nothing blocks the reader. Frame types
//     0x02/0x03 (protocol version 1's OBSERVE/OBSERVE_CHUNK) no longer
//     decode: they draw ERR CodeBadFrame and the connection closes.
//   - SNAPSHOT_REQ returns the session's versioned gob snapshot in the
//     ACK payload, so a device can checkpoint its server-side state over
//     the same connection it streams on.
//
// Replies travel through a bounded per-connection write queue (a
// buffered channel) drained by a writer goroutine under a write deadline; a
// client that stops reading its ACKs until the queue overflows is killed
// and counted (SlowKills) rather than allowed to wedge the reader. Close
// is a graceful drain: intake stops, every queued reply is flushed, and
// all connection goroutines join before Close returns — every
// observation the server ACKed is in a shard queue (drain ordering is
// pinned by the loopback suite; see DESIGN.md §16).
package server

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"affectedge/internal/fleet"
	"affectedge/internal/wire"
)

// Config tunes the ingest server. The zero value of every field has a
// sensible default; see normalize.
type Config struct {
	// WriteQueue bounds each connection's outgoing reply queue in frames
	// (default 256). Overflow kills the connection (slow reader).
	WriteQueue int
	// ReadTimeout is the idle read deadline (default 30s): a connection
	// that sends nothing for this long is dropped.
	ReadTimeout time.Duration
	// WriteTimeout bounds each reply write (default 10s).
	WriteTimeout time.Duration
}

const (
	// readBuf is the per-connection read buffer in bytes.
	readBuf = 32 << 10
	// flushBytes bounds how many encoded reply bytes one vectored flush
	// accumulates before it is forced out. The writer always flushes the
	// moment its queue is momentarily empty, so a client with one frame in
	// flight still sees single-frame latency; the threshold only bites
	// under pipelined load, where it caps flush latency by size.
	flushBytes = 32 << 10
	// flushFrames caps the frames per vectored flush — the net.Buffers
	// length handed to one writev.
	flushFrames = 64
)

func (c Config) normalize() Config {
	if c.WriteQueue <= 0 {
		c.WriteQueue = 256
	}
	if c.ReadTimeout <= 0 {
		c.ReadTimeout = 30 * time.Second
	}
	if c.WriteTimeout <= 0 {
		c.WriteTimeout = 10 * time.Second
	}
	return c
}

// Counters is a snapshot of the server's accounting, read from its own
// metric handles; each JSON tag is the metric's name under the scope
// passed to WireMetrics. The serving invariant the loopback suite pins
// is per observation, not per frame: every observation an OBSERVE_BATCH
// frame carries (BatchObs) is exactly one of Accepted (ACK bit clear, in
// a shard queue), Nacked (backpressure NACK bit), or Rejected (an ERR
// for an unknown session, a bad dimension, a non-finite value or a
// closed fleet, with CodeUnknownSession, CodeDim, CodeBadValue or
// CodeClosed). A HELLO that passes the magic/version check (a failure is
// one of ProtocolErrors) is one of Hellos or HelloRefused (an unknown,
// parked or out-of-range session, or a wrong dim).
type Counters struct {
	Conns          int64 `json:"conns"`            // currently open
	ConnsTotal     int64 `json:"conns_total"`      // ever accepted
	Hellos         int64 `json:"hellos"`           // authenticated connections
	HelloRefused   int64 `json:"hello_refused"`    // HELLOs refused with an ERR
	FramesIn       int64 `json:"frames_in"`        // complete frames decoded
	FramesOut      int64 `json:"frames_out"`       // replies written
	Accepted       int64 `json:"accepted"`         // observations the fleet accepted
	Nacked         int64 `json:"nacked"`           // backpressure NACKs (frames or batch items)
	Rejected       int64 `json:"rejected"`         // refused observations (ERR)
	BatchesIn      int64 `json:"batches_in"`       // OBSERVE_BATCH frames dispatched
	BatchObs       int64 `json:"batch_obs"`        // observations carried by OBSERVE_BATCH frames
	Flushes        int64 `json:"flushes"`          // vectored reply flushes (one writev each)
	SnapshotReqs   int64 `json:"snapshot_reqs"`    // session snapshots served
	SlowKills      int64 `json:"slow_kills"`       // connections killed for unread replies
	MidFrameResets int64 `json:"mid_frame_resets"` // peers gone with a partial frame buffered
	AcceptErrors   int64 `json:"accept_errors"`    // transient listener Accept failures
	ReadErrors     int64 `json:"read_errors"`      // connections ended by a read error
	WriteErrors    int64 `json:"write_errors"`     // connections ended by a write error/timeout
	ProtocolErrors int64 `json:"protocol_errors"`  // malformed or out-of-protocol frames
}

// Server is the TCP ingest front end of one fleet. Create with New, arm
// with Listen, stop with Close. The caller owns the fleet: Start it
// before Listen, Close it after Close (the server never closes the
// fleet, so queued observations drain through the fleet's own fence).
type Server struct {
	f   *fleet.Fleet
	cfg Config
	dim int

	ln     net.Listener
	mu     sync.Mutex
	conns  map[*conn]struct{}
	closed atomic.Bool
	wg     sync.WaitGroup

	m metrics
}

// New wraps f in an ingest server. Its counters start at zero and are
// registered under the scope last passed to WireMetrics.
func New(f *fleet.Fleet, cfg Config) *Server {
	return &Server{
		f:     f,
		cfg:   cfg.normalize(),
		dim:   f.FeatureDim(),
		conns: map[*conn]struct{}{},
		m:     newMetrics(wired.Load()),
	}
}

// Listen binds addr (e.g. "127.0.0.1:0") and starts accepting. The
// returned address is the bound one — port 0 resolves here.
func (s *Server) Listen(addr string) (net.Addr, error) {
	if s.closed.Load() {
		return nil, errors.New("server: closed")
	}
	if s.ln != nil {
		return nil, errors.New("server: already listening")
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s.ln = ln
	s.wg.Add(1)
	go s.acceptLoop()
	return ln.Addr(), nil
}

// Addr returns the bound listen address (nil before Listen).
func (s *Server) Addr() net.Addr {
	if s.ln == nil {
		return nil
	}
	return s.ln.Addr()
}

// Close stops intake and drains: the listener closes, every connection's
// reader is woken and exits, queued replies are flushed under the write
// deadline, and all goroutines join. Idempotent. Drain ordering: after
// Close returns, every ACKed observation sits in a shard queue — call
// fleet.Close next to drain those into the sessions.
func (s *Server) Close() error {
	if !s.closed.CompareAndSwap(false, true) {
		return nil
	}
	if s.ln != nil {
		s.ln.Close()
	}
	s.mu.Lock()
	for c := range s.conns {
		c.wake()
	}
	s.mu.Unlock()
	s.wg.Wait()
	return nil
}

// Counters snapshots the accounting.
func (s *Server) Counters() Counters {
	return Counters{
		Conns:          s.m.conns.Value(),
		ConnsTotal:     s.m.connsTotal.Value(),
		Hellos:         s.m.hellos.Value(),
		HelloRefused:   s.m.helloRefused.Value(),
		FramesIn:       s.m.framesIn.Value(),
		FramesOut:      s.m.framesOut.Value(),
		Accepted:       s.m.accepted.Value(),
		Nacked:         s.m.nacked.Value(),
		Rejected:       s.m.rejected.Value(),
		BatchesIn:      s.m.batchesIn.Value(),
		BatchObs:       s.m.batchObs.Value(),
		Flushes:        s.m.flushes.Value(),
		SnapshotReqs:   s.m.snapshotReqs.Value(),
		SlowKills:      s.m.slowKills.Value(),
		MidFrameResets: s.m.midFrame.Value(),
		AcceptErrors:   s.m.acceptErrors.Value(),
		ReadErrors:     s.m.readErrors.Value(),
		WriteErrors:    s.m.writeErrors.Value(),
		ProtocolErrors: s.m.protocolErrors.Value(),
	}
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		nc, err := s.ln.Accept()
		if err != nil {
			if s.closed.Load() {
				return // listener closed by Close
			}
			// Transient accept failure (EMFILE under fd pressure, aborted
			// handshake): back off briefly and keep serving — a dying
			// accept loop would strand every future client.
			s.m.acceptErrors.Inc()
			time.Sleep(10 * time.Millisecond)
			continue
		}
		if !s.serveConn(nc) {
			return
		}
	}
}

// serveConn starts serving one connection: it is tracked, then its reader
// and writer goroutines start. It returns false, with nc closed, when the
// server is already closing.
func (s *Server) serveConn(nc net.Conn) bool {
	c := &conn{srv: s, nc: nc, out: make(chan wire.Frame, s.cfg.WriteQueue)}
	if !s.track(c) {
		nc.Close()
		return false
	}
	s.m.conns.Add(1)
	s.m.connsTotal.Inc()
	s.wg.Add(2)
	go c.readLoop()
	go c.writeLoop()
	return true
}

// track registers c unless the server is closing (the Accept/Close race:
// Close snapshots the map after flipping closed, so a connection is
// either refused here or woken there — never stranded).
func (s *Server) track(c *conn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed.Load() {
		return false
	}
	s.conns[c] = struct{}{}
	return true
}

func (s *Server) untrack(c *conn) {
	s.mu.Lock()
	delete(s.conns, c)
	s.mu.Unlock()
	s.m.conns.Add(-1)
}

// conn is one client connection: a reader goroutine that decodes and
// dispatches frames, and a writer goroutine that drains the bounded
// reply queue. The reader owns all protocol state; they meet only at the
// queue, the killed flag and the socket.
type conn struct {
	srv *Server
	nc  net.Conn
	// out is the reply queue, Config.WriteQueue frames deep: the backlog a
	// client may leave unread before it counts as a slow reader. The
	// reader is its only sender and its only closer, and closes it exactly
	// once, on its way out, so no send can race the close.
	out chan wire.Frame
	// killed is set by the reader before it closes the socket on a slow
	// reader, so the writer's failed write is not counted a second time.
	killed atomic.Bool

	// Reader-owned session state.
	session int
	helloed bool

	// Batched-dispatch scratch (reader-owned): the fleet.ObserveBatch
	// item and status views rebuilt per OBSERVE_BATCH frame.
	bitems []fleet.Obs
	bstat  []error
}

// wake forces a blocked Read to return so the reader can observe the
// server's closed flag.
func (c *conn) wake() { c.nc.SetReadDeadline(time.Now()) }

func (c *conn) readLoop() {
	defer c.srv.wg.Done()
	buf := make([]byte, readBuf)
	var sp wire.Splitter
	var fr wire.Frame
	defer func() {
		// Drain ordering: closing the queue stops intake but keeps queued
		// replies readable; the writer flushes them and closes the socket.
		close(c.out)
		c.srv.untrack(c)
	}()
	for {
		c.nc.SetReadDeadline(time.Now().Add(c.srv.cfg.ReadTimeout))
		// Checked after the deadline is armed: either this sees Close's
		// flag, or Close's wake lands after this pass's deadline and the
		// Read below returns at once. A reader busy with a chunk when
		// Close runs would otherwise re-arm past the wake and keep
		// admitting frames for as long as its client keeps sending.
		if c.srv.closed.Load() {
			return
		}
		n, err := c.nc.Read(buf)
		if n > 0 {
			if ferr := sp.Feed(buf[:n]); ferr != nil {
				c.protoErr(ferr)
				return
			}
			for {
				ok, nerr := sp.Next(&fr)
				if nerr != nil {
					c.protoErr(nerr)
					return
				}
				if !ok {
					break
				}
				c.srv.m.framesIn.Inc()
				if !c.handle(&fr) {
					return
				}
			}
		}
		if err != nil {
			if c.srv.closed.Load() {
				return // graceful shutdown woke us
			}
			if sp.Pending() > 0 {
				// Peer vanished mid-frame: nothing half-applied — frames
				// dispatch only when complete — just counted and cleaned up.
				c.srv.m.midFrame.Inc()
			}
			if !errors.Is(err, io.EOF) {
				c.srv.m.readErrors.Inc()
			}
			return
		}
	}
}

// writeLoop drains the reply queue with an explicit flush policy: block
// for one frame, then gather every frame already queued — each encoded
// into its own recycled buffer — and hand the lot to one vectored write
// (net.Buffers → writev), flushing when the queue is momentarily empty or
// when the flushFrames/flushBytes threshold is hit. Queue-empty flushing
// keeps a client with one frame in flight at single-frame latency; under
// pipelined load the per-frame syscall cost amortizes across the whole
// flush.
func (c *conn) writeLoop() {
	defer c.srv.wg.Done()
	defer c.nc.Close()
	bufs := make([][]byte, 0, flushFrames)
	var nb net.Buffers
	for f := range c.out { // ends once the queue is closed and drained
		n, total := 0, 0
		for {
			if n == len(bufs) {
				bufs = append(bufs, nil)
			}
			b, err := wire.Append(bufs[n][:0], &f)
			if err != nil {
				panic(fmt.Sprintf("server: reply frame failed to encode: %v", err))
			}
			bufs[n] = b
			n++
			total += len(b)
			if n >= flushFrames || total >= flushBytes {
				break
			}
			var ok bool
			select {
			case f, ok = <-c.out:
			default:
			}
			if !ok {
				break // queue momentarily empty or closed: flush what we have
			}
		}
		// nb copies the slice headers: WriteTo consumes nb in place, while
		// the byte buffers in bufs stay ours for the next gather.
		nb = append(nb[:0], bufs[:n]...)
		c.nc.SetWriteDeadline(time.Now().Add(c.srv.cfg.WriteTimeout))
		if _, err := nb.WriteTo(c.nc); err != nil {
			if !c.killed.Load() {
				c.srv.m.writeErrors.Inc()
			}
			return
		}
		c.srv.m.framesOut.Add(int64(n))
		c.srv.m.flushes.Inc()
	}
}

// reply queues one frame for the writer. A full queue means the client
// is not reading its replies: the connection is killed (socket closed to
// unblock a mid-write writer) and counted once, as a slow kill — the
// server never lets a slow reader wedge the read loop. Returns false when
// the connection should close; the reader then returns and closes the
// queue.
func (c *conn) reply(f wire.Frame) bool {
	select {
	case c.out <- f:
		return true
	default:
		c.srv.m.slowKills.Inc()
		c.killed.Store(true)
		c.nc.Close()
		return false
	}
}

// protoErr handles an unparseable or out-of-protocol input: counted, a
// best-effort BAD_FRAME ERR queued, connection closed.
func (c *conn) protoErr(err error) {
	c.srv.m.protocolErrors.Inc()
	c.reply(wire.Frame{Type: wire.Err, Code: wire.CodeBadFrame, Msg: truncMsg(err.Error())})
}

// handle dispatches one decoded frame; false closes the connection.
func (c *conn) handle(fr *wire.Frame) bool {
	if !c.helloed {
		if fr.Type != wire.Hello {
			c.protoErr(fmt.Errorf("first frame %s, want HELLO", fr.Type))
			return false
		}
		return c.hello(fr)
	}
	switch fr.Type {
	case wire.Hello:
		c.protoErr(errors.New("duplicate HELLO"))
		return false
	case wire.ObserveBatch:
		return c.observeBatch(fr)
	case wire.SnapshotReq:
		return c.snapshot(fr)
	default: // Ack/Err are server→client only
		c.protoErr(fmt.Errorf("unexpected %s from client", fr.Type))
		return false
	}
}

// hello authenticates the connection: protocol version, session
// existence (live, not parked), and feature dimensionality all check
// before the ACK. Refusals are typed ERR frames so the client can tell
// a version skew from a missing session.
func (c *conn) hello(fr *wire.Frame) bool {
	if err := wire.CheckHello(fr); err != nil {
		var ve *wire.VersionError
		if errors.As(err, &ve) {
			c.reply(wire.Frame{Type: wire.Err, Code: wire.CodeVersion, Msg: truncMsg(err.Error())})
			c.srv.m.protocolErrors.Inc()
			return false
		}
		c.protoErr(err)
		return false
	}
	id := int(fr.Session)
	refusal := wire.Frame{Type: wire.Err, Code: wire.CodeUnknownSession}
	switch {
	case fr.Session > math.MaxInt64:
		refusal.Msg = "session id out of range"
	case !c.srv.f.Connected(id):
		refusal.Msg = fmt.Sprintf("session %d not connected", id)
	case int(fr.Dim) != c.srv.dim:
		refusal.Code, refusal.Msg = wire.CodeDim, fmt.Sprintf("dim %d, fleet serves %d", fr.Dim, c.srv.dim)
	default:
		c.session = id
		c.helloed = true
		c.srv.m.hellos.Inc()
		return c.reply(wire.Frame{Type: wire.Ack, Seq: 0}) // HELLO acks as seq 0
	}
	c.srv.m.helloRefused.Inc()
	c.reply(refusal)
	return false
}

// observeBatch routes one OBSERVE_BATCH into the fleet as a shard-level
// grouped submission (fleet.ObserveBatch: one lock acquisition and one
// coalesced enqueue per same-shard run) and answers with one ACK_BATCH
// whose bitmap NACKs exactly the backpressured items — a full shard costs
// those items a retry, not the whole frame. A dimension mismatch or a
// NaN/±Inf feature value is refused with a frame-level CodeDim or
// CodeBadValue ERR before anything is submitted, and the connection stays
// open; any other refusal goes through refuse. The value check is one
// branch-free fleet.Finite pass over the frame; only a frame that fails
// it is scanned again to name the bad value.
func (c *conn) observeBatch(fr *wire.Frame) bool {
	n := len(fr.Batch)
	c.srv.m.batchesIn.Inc()
	c.srv.m.batchObs.Add(int64(n))
	finite := true
	for i := range fr.Batch {
		finite = fleet.Finite(fr.Batch[i].Vals) && finite
	}
	for i := range fr.Batch {
		if len(fr.Batch[i].Vals) != c.srv.dim {
			c.count(0, 0, n)
			return c.reply(wire.Frame{Type: wire.Err, Seq: fr.Batch[i].Seq, Code: wire.CodeDim,
				Msg: fmt.Sprintf("batch item %d dim %d, want %d", i, len(fr.Batch[i].Vals), c.srv.dim)})
		}
		if finite {
			continue
		}
		// Rescan only a refused frame, to name its first bad value.
		for k, v := range fr.Batch[i].Vals {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				c.count(0, 0, n)
				return c.reply(wire.Frame{Type: wire.Err, Seq: fr.Batch[i].Seq, Code: wire.CodeBadValue,
					Msg: fmt.Sprintf("batch item %d value %d is %v", i, k, v)})
			}
		}
	}
	if cap(c.bitems) < n {
		c.bitems = make([]fleet.Obs, n)
		c.bstat = make([]error, n)
	}
	items, statuses := c.bitems[:n], c.bstat[:n]
	for i := range fr.Batch {
		items[i] = fleet.Obs{ID: c.session, At: time.Duration(fr.Batch[i].At), X: fr.Batch[i].Vals}
	}
	if err := c.srv.f.ObserveBatch(items, statuses); err != nil {
		// ErrClosed: the fleet admitted none of the frame's items.
		c.count(0, 0, n)
		return c.refuse(fr.Batch[0].Seq, err)
	}
	// Fresh bitmap per reply: the frame travels through the queue to the
	// writer, so the reader must not reuse its backing.
	bitmap := make([]byte, wire.BitmapLen(n))
	acked, nacked := 0, 0
	for i, st := range statuses {
		switch {
		case st == nil:
			acked++
		case errors.Is(st, fleet.ErrBackpressure):
			wire.SetNack(bitmap, i)
			nacked++
		default:
			// Session removed mid-batch: the accepted prefix is already
			// queued; the rest of the frame resolves to one ERR.
			c.count(acked, 0, n-acked)
			return c.refuse(fr.Batch[i].Seq, st)
		}
	}
	c.count(acked, nacked, 0)
	return c.reply(wire.Frame{Type: wire.AckBatch, Seq: fr.Batch[0].Seq, Count: n, Bitmap: bitmap})
}

// count books one frame's observation verdicts.
func (c *conn) count(accepted, nacked, rejected int) {
	c.srv.m.accepted.Add(int64(accepted))
	c.srv.m.nacked.Add(int64(nacked))
	c.srv.m.rejected.Add(int64(rejected))
}

// snapshot serves the session's versioned gob snapshot in an ACK payload.
func (c *conn) snapshot(fr *wire.Frame) bool {
	var buf bytes.Buffer
	if err := c.srv.f.SnapshotSession(c.session, &buf); err != nil {
		return c.refuse(fr.Seq, err)
	}
	c.srv.m.snapshotReqs.Inc()
	if buf.Len() > wire.MaxData {
		return c.reply(wire.Frame{Type: wire.Err, Seq: fr.Seq, Code: wire.CodeInternal,
			Msg: fmt.Sprintf("snapshot %d bytes exceeds frame bound", buf.Len())})
	}
	return c.reply(wire.Frame{Type: wire.Ack, Seq: fr.Seq, Data: buf.Bytes()})
}

// refuse maps a fleet error for frame seq onto the wire: an unknown
// session draws CodeUnknownSession and keeps the connection (the session
// may Reconnect); a closed fleet draws CodeClosed and anything else
// CodeInternal, and both hang up. Backpressure never arrives here — it
// travels as a per-item NACK bit.
func (c *conn) refuse(seq uint64, err error) bool {
	switch {
	case errors.Is(err, fleet.ErrUnknownSession):
		return c.reply(wire.Frame{Type: wire.Err, Seq: seq, Code: wire.CodeUnknownSession,
			Msg: truncMsg(err.Error())})
	case errors.Is(err, fleet.ErrClosed):
		c.reply(wire.Frame{Type: wire.Err, Seq: seq, Code: wire.CodeClosed, Msg: "fleet closed"})
	default:
		c.reply(wire.Frame{Type: wire.Err, Seq: seq, Code: wire.CodeInternal, Msg: truncMsg(err.Error())})
	}
	return false
}

func truncMsg(s string) string {
	if len(s) > wire.MaxMsg {
		return s[:wire.MaxMsg]
	}
	return s
}
