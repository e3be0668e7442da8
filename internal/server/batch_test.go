package server

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"testing"
	"time"

	"affectedge/internal/affect"
	"affectedge/internal/fleet"
	"affectedge/internal/parallel"
	"affectedge/internal/wire"
)

// TestLoopbackAccountingBatched is TestLoopbackAccounting's pipelined
// twin: a full concurrent load through OBSERVE_BATCH frames must keep
// every ledger balanced — client sent == acked + nacked, client acks ==
// server Accepted == fleet-applied, per-item NACK bits == fleet drops —
// and leak no goroutine. Run under -race this also exercises the
// reader → fleet → writer handoff of whole batches concurrently.
func TestLoopbackAccountingBatched(t *testing.T) {
	leak := checkGoroutines(t)
	const sessions, obs = 16, 50
	f, srv, addr := newTestServer(t, testFleetConfig(sessions), Config{})
	cfg := LoadConfig{
		Addr: addr, Sessions: sessions, Obs: obs,
		Dim: f.FeatureDim(), Seed: 7,
		Batch: 8, Window: 4,
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
	if c.BatchesIn == 0 || c.BatchObs != res.Sent {
		t.Errorf("batches_in %d batch_obs %d, want > 0 and == sent %d",
			c.BatchesIn, c.BatchObs, res.Sent)
	}
	if c.Flushes == 0 || c.Flushes > c.FramesOut {
		t.Errorf("flushes %d vs frames_out %d: want 0 < flushes <= frames_out",
			c.Flushes, c.FramesOut)
	}
	st := f.Stats()
	if st.Observations+st.LateDrops != c.Accepted {
		t.Errorf("fleet observations %d + late drops %d != accepted %d",
			st.Observations, st.LateDrops, c.Accepted)
	}
	if st.Drops != res.Nacked {
		t.Errorf("fleet drops %d != client nacks %d", st.Drops, res.Nacked)
	}
	leak()
}

// TestBatchPartialNackRetry pins the retry loop against a deterministic
// partial NACK: an unstarted fleet with a depth-4 queue admits exactly 4
// of an 8-item batch, the ACK_BATCH bitmap NACKs the tail, and once the
// fleet starts draining, Flush retries the NACKed items to full
// acceptance — nothing lost, nothing duplicated.
func TestBatchPartialNackRetry(t *testing.T) {
	f, err := fleet.New(fleet.Config{Sessions: 1, Shards: 1, Seed: 1, QueueDepth: 4})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(f, Config{})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		srv.Close()
		f.Close()
	}()
	dim := f.FeatureDim()
	cli, err := Dial(addr.String(), 0, dim, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	cli.StartBatching(BatchConfig{BatchSize: 8, Window: 1})
	vals := make([]float64, dim)
	for i := 0; i < 8; i++ {
		// The 8th append fills the batch and flushes the frame; window 1
		// means it is now in flight, unacknowledged by the client.
		if err := cli.ObserveQueued(time.Duration(i+1)*time.Millisecond, vals); err != nil {
			t.Fatalf("queue %d: %v", i, err)
		}
	}
	// Start the fleet so the retry has somewhere to go, then drain the
	// pipeline: the first ACK_BATCH carries 4 NACK bits, Flush requeues
	// and resends until everything is accepted.
	if err := f.Start(); err != nil {
		t.Fatal(err)
	}
	if err := cli.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	acked, nacked, frames := cli.BatchStats()
	if acked != 8 {
		t.Errorf("acked %d, want 8", acked)
	}
	if nacked < 4 {
		t.Errorf("nacked %d, want >= 4 (depth-4 queue saw an 8-item batch)", nacked)
	}
	if frames < 2 {
		t.Errorf("frames %d, want >= 2 (initial batch + at least one retry)", frames)
	}
	srv.Close()
	f.Close()
	if got := f.Stats().Observations; got != 8 {
		t.Errorf("fleet applied %d, want 8", got)
	}
}

// TestObserveBatchWire drives hand-built OBSERVE_BATCH frames through a
// raw connection, pinning the exact reply shapes: a clean batch gets one
// ACK_BATCH with a clear bitmap, a partially admitted batch gets the
// precise NACK bits, a wrong-width item refuses the whole frame with a
// kept-connection CodeDim ERR, and a zero-item batch is a protocol error.
func TestObserveBatchWire(t *testing.T) {
	f, err := fleet.New(fleet.Config{Sessions: 2, Shards: 1, Seed: 1, QueueDepth: 4})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(f, Config{})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		srv.Close()
		f.Close()
	}()
	dim := f.FeatureDim()
	_, send, recv := rawDial(t, addr.String())
	send(helloFrame(0, dim))
	if r := recv(); r.Type != wire.Ack {
		t.Fatalf("handshake: got %s", r.Type)
	}
	vals := make([]float64, dim)
	batch := func(base uint64, n int) *wire.Frame {
		fr := &wire.Frame{Type: wire.ObserveBatch}
		for i := 0; i < n; i++ {
			fr.Batch = append(fr.Batch, wire.BatchObs{
				Seq: base + uint64(i), At: int64(base) + int64(i), Vals: vals,
			})
		}
		return fr
	}

	// Depth-4 queue, unstarted fleet: a 6-item batch admits 4, NACKs 2.
	send(batch(1, 6))
	r := recv()
	if r.Type != wire.AckBatch || r.Seq != 1 || r.Count != 6 {
		t.Fatalf("got %s seq %d count %d, want ACK_BATCH seq 1 count 6", r.Type, r.Seq, r.Count)
	}
	for i := 0; i < 6; i++ {
		if want := i >= 4; wire.Nacked(r.Bitmap, i) != want {
			t.Errorf("bitmap bit %d = %v, want %v", i, !want, want)
		}
	}

	// A wrong-width item anywhere refuses the whole frame, connection kept.
	bad := batch(10, 3)
	bad.Batch[1].Vals = vals[:dim-2]
	send(bad)
	if r := recv(); r.Type != wire.Err || r.Code != wire.CodeDim || r.Seq != 11 {
		t.Fatalf("got %s code %d seq %d, want ERR CodeDim seq 11", r.Type, r.Code, r.Seq)
	}

	// Connection still works: drain the queue, then a clean batch ACKs clean.
	// Start only launches the worker, so wait until it has applied the
	// four queued items; otherwise the batch can race the drain and find
	// the queue still partly full.
	if err := f.Start(); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(5 * time.Second); ; {
		st := f.Stats()
		if st.Observations+st.LateDrops == 4 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("queue not drained: applied %d, late %d, want 4 in all", st.Observations, st.LateDrops)
		}
		time.Sleep(time.Millisecond)
	}
	send(batch(20, 4))
	r = recv()
	if r.Type != wire.AckBatch || r.Seq != 20 || r.Count != 4 {
		t.Fatalf("got %s seq %d count %d, want ACK_BATCH seq 20 count 4", r.Type, r.Seq, r.Count)
	}
	for i := 0; i < 4; i++ {
		if wire.Nacked(r.Bitmap, i) {
			t.Errorf("clean batch NACKed item %d", i)
		}
	}

	c := srv.Counters()
	if c.BatchesIn != 3 || c.BatchObs != 13 {
		t.Errorf("batches_in %d batch_obs %d, want 3 and 13", c.BatchesIn, c.BatchObs)
	}
	if c.Accepted != 8 || c.Nacked != 2 || c.Rejected != 3 {
		t.Errorf("accepted %d nacked %d rejected %d, want 8, 2, 3", c.Accepted, c.Nacked, c.Rejected)
	}
}

// TestAckMeansAdmitted pins the ACK contract (DESIGN §17): an ACKed item
// was admitted — validated and quantized into a shard queue — and is later
// either applied or late-dropped, never lost. Two clients upload through
// real batching pipelines into a fleet whose worker has not started, so
// every ACKed item is still queued when session 1 is removed mid-stream.
// Session 1's next frame is refused; after the drain, its queued items are
// the late drops, and acked == applied + late dropped exactly.
func TestAckMeansAdmitted(t *testing.T) {
	leak := checkGoroutines(t)
	f, err := fleet.New(fleet.Config{Sessions: 2, Shards: 1, Seed: 3, QueueDepth: 64})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(f, Config{})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { // early exits; both Closes are idempotent
		srv.Close()
		f.Close()
	}()
	dim := f.FeatureDim()
	clis := make([]*Client, 2)
	for id := range clis {
		if clis[id], err = Dial(addr.String(), id, dim, 5*time.Second); err != nil {
			t.Fatal(err)
		}
		clis[id].StartBatching(BatchConfig{BatchSize: 4, Window: 2})
	}
	vals := make([]float64, dim)
	upload := func(cli *Client, round, n int) error {
		for i := 0; i < n; i++ {
			for k := range vals {
				vals[k] = 0.2 * float64((round+i+k)%9-4)
			}
			if err := cli.ObserveQueued(time.Duration(round*100+i+1)*time.Millisecond, vals); err != nil {
				return err
			}
		}
		return cli.Flush()
	}
	for id, cli := range clis {
		if err := upload(cli, 0, 16); err != nil {
			t.Fatalf("session %d: %v", id, err)
		}
	}
	if err := f.RemoveSession(1); err != nil {
		t.Fatal(err)
	}
	if err := upload(clis[0], 1, 16); err != nil {
		t.Fatalf("session 0 after the removal: %v", err)
	}
	var re *RemoteError
	if err := upload(clis[1], 1, 4); !errors.As(err, &re) || re.Code != wire.CodeUnknownSession {
		t.Fatalf("removed session's upload: %v, want ERR CodeUnknownSession", err)
	}
	if err := f.Start(); err != nil {
		t.Fatal(err)
	}
	for _, cli := range clis {
		cli.Close()
	}
	srv.Close()
	f.Close()
	acked0, _, _ := clis[0].BatchStats()
	acked1, _, _ := clis[1].BatchStats()
	acked := acked0 + acked1
	st := f.Stats()
	if acked != 48 || srv.Counters().Accepted != acked {
		t.Errorf("acked %d (server accepted %d), want 48 on both sides", acked, srv.Counters().Accepted)
	}
	if st.Observations+st.LateDrops != acked {
		t.Errorf("applied %d + late dropped %d != acked %d", st.Observations, st.LateDrops, acked)
	}
	if st.LateDrops != acked1 {
		t.Errorf("late drops %d, want session 1's %d queued ACKed items", st.LateDrops, acked1)
	}
	leak()
}

// TestObserveBatchBadValue: one session sends an OBSERVE_BATCH with a NaN
// feature and one with +Inf while a bystander session uploads clean
// traffic. Each bad frame draws one kept-connection CodeBadValue ERR at
// the offending item's seq, nothing from it is admitted, all of its items
// count as rejected, and the fleet — the bystander included — ends with
// the fingerprint of the same run without the bad frames.
func TestObserveBatchBadValue(t *testing.T) {
	run := func(attack bool) (string, Counters) {
		f, srv, addr := newTestServer(t, VerifyConfig(2, 1, 64, 3), Config{})
		dim := f.FeatureDim()
		_, sendA, recvA := rawDial(t, addr)
		_, sendB, recvB := rawDial(t, addr)
		sendA(helloFrame(0, dim))
		sendB(helloFrame(1, dim))
		if ra, rb := recvA(), recvB(); ra.Type != wire.Ack || rb.Type != wire.Ack {
			t.Fatalf("handshakes: %s, %s", ra.Type, rb.Type)
		}
		frame := func(base uint64, poison float64) *wire.Frame {
			fr := &wire.Frame{Type: wire.ObserveBatch}
			for i := 0; i < 3; i++ {
				vals := make([]float64, dim)
				for k := range vals {
					vals[k] = 0.3 * float64((int(base)+i+k)%7-3)
				}
				if i == 1 {
					vals[dim/2] = poison
				}
				fr.Batch = append(fr.Batch, wire.BatchObs{Seq: base + uint64(i), At: int64(base+uint64(i)) * 1e9, Vals: vals})
			}
			return fr
		}
		for round, poison := range []float64{math.NaN(), math.Inf(1), 0, 0} {
			base := uint64(10 * (round + 1))
			sendB(frame(base, 0))
			if r := recvB(); r.Type != wire.AckBatch || r.Seq != base {
				t.Fatalf("bystander round %d: got %s seq %d", round, r.Type, r.Seq)
			}
			if attack && poison != 0 {
				sendA(frame(base, poison))
				if r := recvA(); r.Type != wire.Err || r.Code != wire.CodeBadValue || r.Seq != base+1 {
					t.Fatalf("poison %v: got %s code %d seq %d, want ERR CodeBadValue seq %d", poison, r.Type, r.Code, r.Seq, base+1)
				}
			}
		}
		// The refused session's connection still serves.
		sendA(frame(100, 0))
		if r := recvA(); r.Type != wire.AckBatch || r.Seq != 100 {
			t.Fatalf("after refusals: got %s seq %d", r.Type, r.Seq)
		}
		srv.Close()
		f.Close()
		return f.Stats().Fingerprint(), srv.Counters()
	}
	clean, cc := run(false)
	poisoned, pc := run(true)
	if poisoned != clean {
		t.Errorf("fingerprint %s with refused frames, %s without", poisoned, clean)
	}
	if pc.Accepted != cc.Accepted || pc.Rejected != cc.Rejected+6 {
		t.Errorf("accepted %d rejected %d, want %d and %d", pc.Accepted, pc.Rejected, cc.Accepted, cc.Rejected+6)
	}
}

// TestBatchSlowReaderKill floods OBSERVE_BATCH frames down a connection
// that never reads its coalesced ACKs: the bounded write queue plus the
// write deadline must kill the connection mid-batch-stream instead of
// wedging the writer, and a well-behaved batched client on the same
// listener must be untouched.
func TestBatchSlowReaderKill(t *testing.T) {
	leak := checkGoroutines(t)
	f, srv, addr := newTestServer(t, testFleetConfig(4),
		Config{WriteQueue: 4, WriteTimeout: 100 * time.Millisecond})
	dim := f.FeatureDim()

	nc, send, recv := rawDial(t, addr)
	send(helloFrame(0, dim))
	if r := recv(); r.Type != wire.Ack {
		t.Fatalf("handshake: got %s", r.Type)
	}
	fr := &wire.Frame{Type: wire.ObserveBatch}
	vals := make([]float64, dim)
	for i := 0; i < 16; i++ {
		fr.Batch = append(fr.Batch, wire.BatchObs{Seq: uint64(i + 1), At: int64(i + 1), Vals: vals})
	}
	req, err := wire.Append(nil, fr)
	if err != nil {
		t.Fatal(err)
	}
	nc.SetWriteDeadline(time.Now().Add(10 * time.Second))
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
			t.Fatalf("slow batch reader never killed: %+v", c)
		}
		time.Sleep(10 * time.Millisecond)
	}
	// A healthy batched client still gets full service.
	cli, err := Dial(addr, 1, dim, 5*time.Second)
	if err != nil {
		t.Fatalf("healthy client: %v", err)
	}
	cli.StartBatching(BatchConfig{BatchSize: 4, Window: 2})
	for i := 0; i < 8; i++ {
		if err := cli.ObserveQueued(time.Duration(i+1)*time.Millisecond, vals); err != nil {
			t.Fatalf("healthy queue %d: %v", i, err)
		}
	}
	if err := cli.Flush(); err != nil {
		t.Fatalf("healthy flush: %v", err)
	}
	cli.Close()
	srv.Close()
	f.Close()
	leak()
}

// TestBatchedFingerprintGrid is the serving layer's keystone determinism
// proof — the network path adds no semantics: identical seeded traffic
// driven (a) in-process through one-item fleet.ObserveBatch calls, (b)
// over TCP one observation per frame with one frame in flight
// ("unbatched": BatchSize 1, Window 1), and (c) over TCP pipelined
// batches at sizes 1, 8, and 64 with 4 frames in flight must leave
// equally-configured fleets with one identical Stats.Fingerprint — at 1
// and 8 pool workers.
//
// Determinism liturgy: MaxBatch 1 (VerifyConfig) makes the live path's
// batching accounting timing-independent; queue depth is a shard's whole
// traffic share, so drops (a fingerprint field, and the only source of
// NACK-retry reordering) are structurally impossible and per-session
// arrival order is exactly send order in every mode; everything else in
// the fingerprint is per-session state, and sessions are closed systems
// fed identical observation sequences.
func TestBatchedFingerprintGrid(t *testing.T) {
	const (
		sessions = 16
		shards   = 4
		obs      = 64
		seed     = 777
		trafSeed = 99
		depth    = (sessions / shards) * obs
	)
	baseLoad := LoadConfig{Sessions: sessions, Obs: obs, Seed: trafSeed}
	newFleet := func(t *testing.T) *fleet.Fleet {
		t.Helper()
		f, err := fleet.New(VerifyConfig(sessions, shards, depth, seed))
		if err != nil {
			t.Fatal(err)
		}
		if err := f.Start(); err != nil {
			t.Fatal(err)
		}
		return f
	}
	for _, workers := range []int{1, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			old := parallel.SetWorkers(workers)
			defer parallel.SetWorkers(old)

			// In-process baseline.
			fD := newFleet(t)
			load := baseLoad
			load.Dim = fD.FeatureDim()
			if _, err := DirectLoad(fD, load); err != nil {
				t.Fatalf("DirectLoad: %v", err)
			}
			fD.Close()
			want := fD.Stats().Fingerprint()

			tcpRun := func(t *testing.T, batch, window int) {
				f := newFleet(t)
				srv := New(f, Config{})
				addr, err := srv.Listen("127.0.0.1:0")
				if err != nil {
					t.Fatal(err)
				}
				l := load
				l.Addr = addr.String()
				l.Batch, l.Window = batch, window
				res, err := RunLoad(l)
				if err != nil {
					t.Fatalf("RunLoad: %v", err)
				}
				srv.Close()
				f.Close()
				if res.Acked != sessions*obs || res.Nacked != 0 {
					t.Fatalf("acked %d nacked %d, want %d and 0", res.Acked, res.Nacked, sessions*obs)
				}
				if got := f.Stats().Fingerprint(); got != want {
					t.Errorf("fingerprint mismatch (batch=%d):\n  tcp    %s\n  direct %s", batch, got, want)
				}
			}
			t.Run("unbatched", func(t *testing.T) { tcpRun(t, 1, 1) })
			for _, batch := range []int{1, 8, 64} {
				t.Run(fmt.Sprintf("batch=%d", batch), func(t *testing.T) { tcpRun(t, batch, 4) })
			}
		})
	}
}

// TestObserveBatchEmptyFrame pins the strict-decode posture end to end:
// a zero-item OBSERVE_BATCH cannot even be encoded, and a hand-crafted
// one on the wire is a protocol error that costs the connection.
func TestObserveBatchEmptyFrame(t *testing.T) {
	f, _, addr := newTestServer(t, testFleetConfig(2), Config{})
	dim := f.FeatureDim()
	nc, send, recv := rawDial(t, addr)
	send(helloFrame(0, dim))
	if r := recv(); r.Type != wire.Ack {
		t.Fatalf("handshake: got %s", r.Type)
	}
	if _, err := wire.Append(nil, &wire.Frame{Type: wire.ObserveBatch}); !errors.Is(err, wire.ErrEmptyBatch) {
		t.Fatalf("encoding empty batch: %v, want ErrEmptyBatch", err)
	}
	// Raw bytes: len=3, type OBSERVE_BATCH, count=0.
	if _, err := nc.Write([]byte{3, 0, 0, 0, 0x07, 0, 0}); err != nil {
		t.Fatal(err)
	}
	if r := recv(); r.Type != wire.Err || r.Code != wire.CodeBadFrame {
		t.Fatalf("got %s code %d, want ERR CodeBadFrame", r.Type, r.Code)
	}
}

// TestLockstepRetryKeepsOrder pins the window-1 guarantee under
// backpressure: at BatchConfig{BatchSize: 1, Window: 1} a NACKed
// observation is retried ahead of every later one, so the session applies
// its observations in send order — its snapshot matches an in-order
// in-process feed of the same vectors.
func TestLockstepRetryKeepsOrder(t *testing.T) {
	const obs = 24
	cfg := fleet.Config{Sessions: 1, Shards: 1, Seed: 5, QueueDepth: 1}
	f, err := fleet.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv := New(f, Config{})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dim := f.FeatureDim()
	cli, err := Dial(addr.String(), 0, dim, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	cli.StartBatching(BatchConfig{BatchSize: 1, Window: 1})
	// Noise-free emotion prototypes in runs of four: the hysteresis
	// switch counts in the session state then depend on arrival order.
	sm, err := affect.NewStreamModel(dim, cfg.Seed)
	if err != nil {
		t.Fatal(err)
	}
	xs := make([][]float64, obs)
	ats := make([]time.Duration, obs)
	for i := range xs {
		xs[i] = sm.Protos[(i/4)%len(sm.Protos)]
		ats[i] = time.Duration(i+1) * time.Millisecond
		if i == 4 {
			// Until now the unstarted fleet's depth-1 queue held the first
			// observation and NACKed the rest.
			if err := f.Start(); err != nil {
				t.Fatal(err)
			}
		}
		if err := cli.ObserveQueued(ats[i], xs[i]); err != nil {
			t.Fatalf("obs %d: %v", i, err)
		}
	}
	if err := cli.Flush(); err != nil {
		t.Fatal(err)
	}
	if acked, nacked, _ := cli.BatchStats(); acked != obs || nacked == 0 {
		t.Fatalf("acked %d nacked %d, want %d and > 0", acked, nacked, obs)
	}
	srv.Close()
	f.Close()

	twin, err := fleet.New(fleet.Config{Sessions: 1, Shards: 1, Seed: 5, QueueDepth: obs})
	if err != nil {
		t.Fatal(err)
	}
	status := []error{nil}
	for i := range xs {
		if err := twin.ObserveBatch([]fleet.Obs{{ID: 0, At: ats[i], X: xs[i]}}, status); err != nil || status[0] != nil {
			t.Fatalf("twin obs %d: %v %v", i, err, status[0])
		}
	}
	if err := twin.Start(); err != nil {
		t.Fatal(err)
	}
	twin.Close()
	var got, want bytes.Buffer
	if err := f.SnapshotSession(0, &got); err != nil {
		t.Fatal(err)
	}
	if err := twin.SnapshotSession(0, &want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatal("session state after NACK retries differs from the in-order feed")
	}
}
