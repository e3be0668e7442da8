package fleet

import (
	"fmt"
	"sort"
	"time"
)

// Session lifecycle: real deployments see devices drop off the network and
// return constantly, and the paper's premise — durable per-user affective
// state driving memory management — only holds if that state survives the
// gap. Disconnect parks a session (frozen, out of the batching order);
// Reconnect revives it and, on the deterministic path, replays the rounds
// it missed. Sessions are closed systems (all randomness through their own
// counted RNG, no cross-session reads) and the int8 kernels make one-row
// and batched inference bitwise identical, so a caught-up session rejoins
// on exactly the trajectory it would have had without the gap — the whole
// run's Stats.Fingerprint is invariant under any churn schedule (pinned by
// chaos_test.go).
//
// On the deterministic path, call Disconnect/Reconnect between RunTicks
// rounds (the fleet is quiescent); on the live path they may race freely
// with ObserveBatch, which treats a parked session as unknown.

// Disconnect parks session id: it keeps all state but stops observing,
// launching, and batching until Reconnect. Fails on an unknown id, an
// already-disconnected id, or a closed fleet.
func (f *Fleet) Disconnect(id int) error {
	if f.closed.Load() {
		return ErrClosed
	}
	sh := f.shardOf(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	s, ok := sh.sessions[id]
	if !ok {
		if _, parked := sh.parked[id]; parked {
			return fmt.Errorf("fleet: session %d already disconnected", id)
		}
		return fmt.Errorf("%w %d", ErrUnknownSession, id)
	}
	delete(sh.sessions, id)
	i := sort.SearchInts(sh.order, id)
	sh.order = append(sh.order[:i], sh.order[i+1:]...)
	s.ticks = f.base
	sh.parked[id] = s
	f.m.disconnects.Inc()
	return nil
}

// Reconnect revives a disconnected session. On the deterministic path the
// session first replays every round it missed (same RNG stream, same
// classifier, serially), converging bit-exactly onto the churn-free
// trajectory before rejoining the batch order; on the live path (started
// fleet) there is no tick clock and the session simply resumes intake.
// Reconnecting a connected session is rejected — disconnect first.
func (f *Fleet) Reconnect(id int) error {
	if f.closed.Load() {
		return ErrClosed
	}
	sh := f.shardOf(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	s, ok := sh.parked[id]
	if !ok {
		if _, live := sh.sessions[id]; live {
			return fmt.Errorf("fleet: session %d is connected; disconnect before reconnect", id)
		}
		return fmt.Errorf("%w %d", ErrUnknownSession, id)
	}
	if !f.started.Load() {
		if err := sh.catchUp(s, f.base); err != nil {
			return err
		}
	}
	delete(sh.parked, id)
	sh.insert(s)
	f.m.reconnects.Inc()
	return nil
}

// Connected reports whether session id is currently in the live set —
// the ingest server's per-connection authentication check: a HELLO for a
// session that is absent or parked is refused.
func (f *Fleet) Connected(id int) bool {
	if id < 0 {
		return false
	}
	sh := f.shardOf(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	_, ok := sh.sessions[id]
	return ok
}

// Disconnected reports whether session id is currently parked.
func (f *Fleet) Disconnected(id int) bool {
	sh := f.shardOf(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	_, ok := sh.parked[id]
	return ok
}

// catchUp replays the deterministic rounds session s missed while parked,
// from s.ticks up to (not including) round `to`: latent step, observation
// synthesis, one-row classification, control-loop apply, launch schedule —
// the exact per-session work tick() performs, in the exact RNG draw order.
// BatchRows is backfilled one row per replayed round, completing the
// logical accounting tick() recorded while the session was away. Caller
// holds sh.mu (or has exclusive shard access).
func (sh *shard) catchUp(s *session, to int) error {
	f := sh.f
	dim := f.cfg.FeatureDim
	classes := len(f.stream.Protos)
	for t := s.ticks; t < to; t++ {
		now := f.cfg.TickEvery * time.Duration(t+1)
		s.stepLatent(t, f.cfg.SwitchEvery)
		sh.feat = growFloats(sh.feat, dim)
		sh.logits = growFloats(sh.logits, classes)
		if err := sh.ingestRow(sh.feat[:dim], s); err != nil {
			return err
		}
		if err := f.model.InferBatch(&sh.qs, sh.feat[:dim], 1, sh.logits[:classes]); err != nil {
			return err
		}
		if err := sh.applyRow(s, now, sh.logits[:classes]); err != nil {
			return err
		}
		if err := s.maybeLaunch(sh, t, now); err != nil {
			return err
		}
		sh.batchRows++
		sh.f.m.batchRows.Observe(1)
		s.ticks = t + 1
	}
	return nil
}
