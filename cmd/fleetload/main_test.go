package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"

	"affectedge/internal/obs"
)

// TestVerifyMetricsDump runs -verify -metrics in process: the dump must
// describe the served run alone, not the served run plus its in-process
// twin, so fleet ingress, server acceptance and the session gauge all
// match the load that went over the socket.
func TestVerifyMetricsDump(t *testing.T) {
	const sessions, perSession = 4, 50
	dir := t.TempDir()
	out, err := os.Create(filepath.Join(dir, "report.json"))
	if err != nil {
		t.Fatal(err)
	}
	defer out.Close()
	o := options{
		Sessions:  sessions,
		Obs:       perSession,
		Shards:    8,
		Seed:      1,
		Timeout:   30 * time.Second,
		DialBurst: 512,
		Verify:    true,
		Metrics:   filepath.Join(dir, "metrics.json"),
	}
	if err := run(o, out); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(o.Metrics)
	if err != nil {
		t.Fatal(err)
	}
	var snap obs.Snapshot
	if err := json.Unmarshal(b, &snap); err != nil {
		t.Fatal(err)
	}
	want := int64(sessions * perSession)
	in, acc, applied := snap.Counter("fleet.ingress"), snap.Counter("server.accepted"), snap.Counter("core.observations")
	if in != want || acc != want || applied != want {
		t.Errorf("fleet.ingress %d server.accepted %d core.observations %d, want %d", in, acc, applied, want)
	}
	if g := snap.Gauge("fleet.sessions"); g != sessions {
		t.Errorf("fleet.sessions %d, want %d", g, sessions)
	}
}
