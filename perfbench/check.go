package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"regexp"
	"strconv"
	"time"

	"affectedge/internal/fleet"
)

// replayObs is one of the workload's own observations, kept for the
// layer replay.
type replayObs struct {
	session int
	at      time.Duration
	x       []float64
}

// semanticHash hashes every Stats.Fingerprint field except Batches,
// BatchRows, MaxBatchRows and Drops, which on the live path depend on
// how requests happened to coalesce.
func semanticHash(st *fleet.Stats) string {
	h := sha256.New()
	var b [8]byte
	for _, v := range []int64{
		int64(st.Sessions), int64(st.Shards), int64(st.Ticks), int64(st.VirtualDuration),
		st.Observations, st.Discarded,
		st.AttentionSwitches, st.MoodSwitches, st.ModeSwitches,
		st.Launches, st.ColdStarts, st.WarmStarts,
		st.BytesLoaded, int64(st.LoadingTime),
		st.Kills, st.KillsByLimit, st.KillsByMemory, st.PeakRAM,
		st.LateDrops,
	} {
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		h.Write(b[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// feedDirect replays traffic into a fresh in-process fleet built from
// cfg and returns its final stats. calls hands each call's items to
// submit in order.
func feedDirect(cfg fleet.Config, calls func(submit func([]fleet.Obs) error) error, log *spanLog, parent uint64) (*fleet.Stats, error) {
	f, err := fleet.New(cfg)
	if err != nil {
		return nil, err
	}
	if err := f.Start(); err != nil {
		return nil, err
	}
	statuses := make([]error, uploadBatch)
	req := uint64(0)
	err = calls(func(items []fleet.Obs) error {
		req++
		return submitAll(f, items, statuses, log, parent, req)
	})
	f.Close()
	if err != nil {
		return nil, err
	}
	return f.Stats(), nil
}

// submitAll submits one call and retries its NACKed items until all are
// accepted. A call holds at most one run per session, and admission
// NACKs a suffix of each same-shard run, so retrying before the next
// call keeps every session's order.
func submitAll(f *fleet.Fleet, items []fleet.Obs, statuses []error, log *spanLog, parent, req uint64) error {
	for len(items) > 0 {
		s := time.Now()
		if err := f.ObserveBatch(items, statuses[:len(items)]); err != nil {
			return err
		}
		log.add("fleet.observe_batch", parent, req, s, time.Now())
		n := 0
		for i := range items {
			if statuses[i] == nil {
				continue
			}
			if !errors.Is(statuses[i], fleet.ErrBackpressure) {
				return statuses[i]
			}
			items[n] = items[i]
			n++
		}
		items = items[:n]
		if n > 0 {
			time.Sleep(50 * time.Microsecond)
		}
	}
	return nil
}

// compareDirect checks the live run against its in-process replay.
func compareDirect(p *pass, direct *fleet.Stats) {
	live, want := semanticHash(p.stats), semanticHash(direct)
	p.check("fingerprint == in-process replay", live == want,
		fmt.Sprintf("live %s replay %s", live[:16], want[:16]))
	p.check("zero lost", p.issued == p.applied && p.stats.LateDrops == 0,
		fmt.Sprintf("lost %d late drops %d", p.issued-p.applied, p.stats.LateDrops))
}

// reference is sim_video's recorded checkpoint for the default seed; a
// negative concealed count means none is recorded.
type reference struct {
	fingerprint string
	concealed   int64
}

// recorded reads sim_video's reference checkpoint from the workload's
// "why" in BENCHMARK.json: "fingerprint <64 hex digits>" and
// "concealed <count>".
func recorded(path string) (reference, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return reference{}, err
	}
	var b struct {
		Workloads []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		return reference{}, fmt.Errorf("%s: %w", path, err)
	}
	for _, w := range b.Workloads {
		if w.Name != "sim_video" {
			continue
		}
		fp := regexp.MustCompile(`fingerprint ([0-9a-f]{64})`).FindStringSubmatch(w.Why)
		cc := regexp.MustCompile(`concealed ([0-9]+)`).FindStringSubmatch(w.Why)
		if fp == nil || cc == nil {
			break
		}
		n, err := strconv.ParseInt(cc[1], 10, 64)
		if err != nil {
			return reference{}, fmt.Errorf("%s: %w", path, err)
		}
		return reference{fingerprint: fp[1], concealed: n}, nil
	}
	return reference{}, fmt.Errorf("%s: no sim_video fingerprint and concealed count recorded", path)
}
