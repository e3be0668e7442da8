package server

import (
	"errors"
	"fmt"
	"net"
	"slices"
	"time"

	"affectedge/internal/obs"
	"affectedge/internal/wire"
)

// Client is a pipelined protocol client for one session over one
// connection; it is not safe for concurrent use (the loadgen runs one per
// goroutine). Observations go through ObserveQueued / Flush: they
// accumulate into OBSERVE_BATCH frames of BatchSize and up to Window
// frames ride the wire unacknowledged, amortizing one round trip over
// BatchSize observations. BatchConfig{BatchSize: 1, Window: 1} is the
// lockstep shape — one observation per frame, each waiting for its reply
// before the next is sent — under which per-session arrival order is
// exactly send order, backpressure retries included.
type Client struct {
	nc      net.Conn
	sp      wire.Splitter
	in      wire.Frame // reply decode target, reused
	buf     []byte     // encode buffer, reused
	rbuf    []byte     // read buffer, reused
	seq     uint64
	timeout time.Duration

	// pipelining state
	bcfg      BatchConfig
	pend      []wire.BatchObs // accumulating batch; Vals are owned copies
	inflight  []*sentBatch    // FIFO of unacknowledged batches
	batchFree []*sentBatch    // recycled sentBatch shells
	valsFree  [][]float64     // recycled observation payload buffers
	bAcked    int64
	bNacked   int64
	bFrames   int64
}

// BatchConfig tunes the pipeline. Zero fields default: BatchSize 16,
// Window 4. A batch is sent when it fills or on Flush.
type BatchConfig struct {
	BatchSize int
	Window    int
	// Latency, when non-nil, records the amortized per-observation cost
	// in microseconds: each item of an acknowledged batch observes
	// rtt/len(batch).
	Latency *obs.Histogram
}

// sentBatch retains a flushed frame's observations until its ACK_BATCH
// arrives, so bitmap-NACKed items can be requeued with their payloads.
type sentBatch struct {
	items []wire.BatchObs
	sent  time.Time
}

// RemoteError is a server ERR reply surfaced as a client-side error. The
// Code preserves the protocol-level classification (unknown session,
// dimension, bad value, ...) so callers can tell refusals apart. None is
// retryable: backpressure arrives as ACK_BATCH NACK bits, which the
// pipeline retries itself.
type RemoteError struct {
	Code wire.Code
	Seq  uint64
	Msg  string
}

func (e *RemoteError) Error() string {
	return fmt.Sprintf("server: remote error code %d on seq %d: %s", e.Code, e.Seq, e.Msg)
}

// Dial connects to addr, performs the HELLO handshake for session id with
// feature dimensionality dim, and returns a ready client running the
// default BatchConfig. timeout bounds every round trip (0 means 30s).
func Dial(addr string, session int, dim int, timeout time.Duration) (*Client, error) {
	if timeout <= 0 {
		timeout = 30 * time.Second
	}
	nc, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, err
	}
	c := &Client{nc: nc, rbuf: make([]byte, 8<<10), timeout: timeout}
	c.StartBatching(BatchConfig{})
	hello := wire.Frame{
		Type:    wire.Hello,
		Version: wire.Version,
		Session: uint64(session),
		Dim:     uint16(dim),
	}
	if _, err := c.roundTrip(&hello, 0); err != nil {
		nc.Close()
		return nil, fmt.Errorf("server: handshake: %w", err)
	}
	return c, nil
}

// StartBatching retunes the pipeline. Call it with nothing queued or in
// flight: right after Dial, or after Flush.
func (c *Client) StartBatching(cfg BatchConfig) {
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 16
	}
	if cfg.BatchSize > wire.MaxBatch {
		cfg.BatchSize = wire.MaxBatch
	}
	if cfg.Window <= 0 {
		cfg.Window = 4
	}
	c.bcfg = cfg
}

// ObserveQueued appends one observation to the accumulating batch
// (copying vals) and flushes when the batch fills. It blocks only when
// the in-flight window is full, and then exactly until the oldest batch
// resolves. A returned error is hard
// (protocol or I/O) — backpressure never surfaces here; NACKed items are
// requeued and retried transparently.
func (c *Client) ObserveQueued(at time.Duration, vals []float64) error {
	var v []float64
	if n := len(c.valsFree); n > 0 && cap(c.valsFree[n-1]) >= len(vals) {
		v = c.valsFree[n-1][:len(vals)]
		c.valsFree = c.valsFree[:n-1]
	} else {
		v = make([]float64, len(vals))
	}
	copy(v, vals)
	c.pend = append(c.pend, wire.BatchObs{At: int64(at), Vals: v})
	if len(c.pend) >= c.bcfg.BatchSize {
		return c.flushBatch()
	}
	return nil
}

// Flush drains the batching pipeline: sends any partial batch and waits
// for every in-flight frame, retrying NACKed items until all are ACKed.
// After a nil return the server has accepted every queued observation.
func (c *Client) Flush() error {
	for len(c.pend) > 0 || len(c.inflight) > 0 {
		if len(c.pend) > 0 {
			if err := c.flushBatch(); err != nil {
				return err
			}
			continue
		}
		if err := c.awaitBatch(); err != nil {
			return err
		}
	}
	return nil
}

// BatchStats reports the pipeline's accounting: observations ACKed,
// bitmap NACKs received (each retried), and OBSERVE_BATCH frames sent.
func (c *Client) BatchStats() (acked, nacked, frames int64) {
	return c.bAcked, c.bNacked, c.bFrames
}

// flushBatch turns pend into one OBSERVE_BATCH frame and sends it,
// first waiting out a full in-flight window. Requeued NACK retries can
// push pend past BatchSize; a frame still carries at most wire.MaxBatch
// items and the remainder stays pending.
func (c *Client) flushBatch() error {
	for len(c.inflight) >= c.bcfg.Window {
		if err := c.awaitBatch(); err != nil {
			return err
		}
	}
	n := len(c.pend)
	if n > wire.MaxBatch {
		n = wire.MaxBatch
	}
	var sb *sentBatch
	if k := len(c.batchFree); k > 0 {
		sb = c.batchFree[k-1]
		c.batchFree = c.batchFree[:k-1]
	} else {
		sb = &sentBatch{}
	}
	sb.items = append(sb.items[:0], c.pend[:n]...)
	c.pend = c.pend[:copy(c.pend, c.pend[n:])]
	for i := range sb.items {
		c.seq++
		sb.items[i].Seq = c.seq
	}
	f := wire.Frame{Type: wire.ObserveBatch, Batch: sb.items}
	sb.sent = time.Now()
	if err := c.send(&f); err != nil {
		return err
	}
	c.bFrames++
	c.inflight = append(c.inflight, sb)
	return nil
}

// awaitBatch resolves the oldest in-flight batch against the next reply
// frame. ACK_BATCH: clean items count as acked, and bitmap-NACKed items
// are requeued (payload buffers move back to pend, no copy) ahead of
// everything not yet sent, so a retry never overtakes a later
// observation. When the whole pipeline has drained into NACKs the shard
// queue is full, and awaitBatch backs off briefly before the retry goes
// out. ERR is a hard failure — batched backpressure is always per-item,
// so a frame-level error means the whole batch was refused.
func (c *Client) awaitBatch() error {
	if len(c.inflight) == 0 {
		return errors.New("server: awaitBatch with nothing in flight")
	}
	if err := c.readFrame(); err != nil {
		return err
	}
	sb := c.inflight[0]
	c.inflight = c.inflight[:copy(c.inflight, c.inflight[1:])]
	switch c.in.Type {
	case wire.AckBatch:
		if c.in.Seq != sb.items[0].Seq || c.in.Count != len(sb.items) {
			return fmt.Errorf("server: ACK_BATCH seq %d count %d, want %d count %d",
				c.in.Seq, c.in.Count, sb.items[0].Seq, len(sb.items))
		}
		per := time.Since(sb.sent) / time.Duration(len(sb.items))
		nacked := 0
		for i := range sb.items {
			c.bcfg.Latency.Observe(per.Microseconds())
			if !wire.Nacked(c.in.Bitmap, i) {
				c.valsFree = append(c.valsFree, sb.items[i].Vals)
				continue
			}
			c.pend = slices.Insert(c.pend, nacked, wire.BatchObs{At: sb.items[i].At, Vals: sb.items[i].Vals})
			nacked++
		}
		if nacked > 0 && len(c.inflight) == 0 {
			time.Sleep(50 * time.Microsecond)
		}
		c.bAcked += int64(len(sb.items) - nacked)
		c.bNacked += int64(nacked)
		c.batchFree = append(c.batchFree, sb)
		return nil
	case wire.Err:
		return &RemoteError{Code: c.in.Code, Seq: c.in.Seq, Msg: c.in.Msg}
	default:
		return fmt.Errorf("server: unexpected %s reply to OBSERVE_BATCH", c.in.Type)
	}
}

// Snapshot drains the pipeline (Flush), then requests the session's
// versioned snapshot and returns the gob bytes (feed to
// fleet.RestoreSession). The returned slice is the client's reusable
// reply buffer — copy it to keep it past the next call.
func (c *Client) Snapshot() ([]byte, error) {
	if err := c.Flush(); err != nil {
		return nil, err
	}
	c.seq++
	f := wire.Frame{Type: wire.SnapshotReq, Seq: c.seq}
	return c.roundTrip(&f, c.seq)
}

// Close closes the connection.
func (c *Client) Close() error { return c.nc.Close() }

func (c *Client) roundTrip(f *wire.Frame, wantSeq uint64) ([]byte, error) {
	if err := c.send(f); err != nil {
		return nil, err
	}
	return c.recv(wantSeq)
}

func (c *Client) send(f *wire.Frame) error {
	var err error
	c.buf, err = wire.Append(c.buf[:0], f)
	if err != nil {
		return err
	}
	c.nc.SetWriteDeadline(time.Now().Add(c.timeout))
	_, err = c.nc.Write(c.buf)
	return err
}

// recv reads one complete reply and maps it: ACK → (data, nil), ERR →
// *RemoteError. Callers send with nothing in flight, so the first reply
// is the one for the request just sent; a seq mismatch is a protocol bug
// and surfaces as an error.
func (c *Client) recv(wantSeq uint64) ([]byte, error) {
	if err := c.readFrame(); err != nil {
		return nil, err
	}
	switch c.in.Type {
	case wire.Ack:
		if c.in.Seq != wantSeq {
			return nil, fmt.Errorf("server: ACK for seq %d, want %d", c.in.Seq, wantSeq)
		}
		return c.in.Data, nil
	case wire.Err:
		return nil, &RemoteError{Code: c.in.Code, Seq: c.in.Seq, Msg: c.in.Msg}
	default:
		return nil, fmt.Errorf("server: unexpected %s reply", c.in.Type)
	}
}

// readFrame blocks until the splitter yields the next complete frame
// into c.in, feeding it socket reads as needed.
func (c *Client) readFrame() error {
	var readErr error // deferred: a Read can return data and an error together
	for {
		ok, err := c.sp.Next(&c.in)
		if err != nil {
			return err
		}
		if ok {
			return nil
		}
		if readErr != nil {
			return readErr
		}
		c.nc.SetReadDeadline(time.Now().Add(c.timeout))
		n, err := c.nc.Read(c.rbuf)
		if n > 0 {
			if ferr := c.sp.Feed(c.rbuf[:n]); ferr != nil {
				return ferr
			}
		}
		readErr = err
		if n == 0 && err != nil {
			return err
		}
	}
}
