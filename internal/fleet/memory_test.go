package fleet

import (
	"bytes"
	"runtime"
	"testing"
)

// sessionMemory runs a fresh 256-session, 4-shard fleet (seed 1,
// defaults) for ticks rounds and returns, per session, the live heap the
// fleet holds after a GC (HeapAlloc and HeapInuse over the figures
// before New) and the mean SnapshotSession envelope size.
func sessionMemory(tb testing.TB, ticks int) (heapAlloc, heapInuse, snapBytes float64) {
	tb.Helper()
	const sessions = 256
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	f, err := New(Config{Sessions: sessions, Shards: 4, Seed: 1})
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := f.RunTicks(ticks); err != nil {
		tb.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	var buf bytes.Buffer
	for id := 0; id < sessions; id++ {
		if err := f.SnapshotSession(id, &buf); err != nil {
			tb.Fatal(err)
		}
	}
	runtime.KeepAlive(f)
	return (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / sessions,
		(float64(after.HeapInuse) - float64(before.HeapInuse)) / sessions,
		float64(buf.Len()) / sessions
}

// TestSessionMemoryFlat: a served session's heap and snapshot do not
// grow with run length. Between 1k and 16k ticks, per-session HeapAlloc,
// HeapInuse and SnapshotSession bytes stay within 1.25x. A device that
// kept its lifecycle log grew HeapAlloc and the snapshot 7-10x over the
// same span; one that allocated a new Process per cold start left span
// slack that grew HeapInuse about 1.7x.
func TestSessionMemoryFlat(t *testing.T) {
	if raceEnabled {
		t.Skip("heap figures mean nothing under -race")
	}
	const bound = 1.25
	heap1, inuse1, snap1 := sessionMemory(t, 1000)
	heap16, inuse16, snap16 := sessionMemory(t, 16000)
	t.Logf("per session at 1k / 16k ticks: HeapAlloc %.0f / %.0f B, HeapInuse %.0f / %.0f B, snapshot %.0f / %.0f B",
		heap1, heap16, inuse1, inuse16, snap1, snap16)
	if heap16 > bound*heap1 {
		t.Errorf("per-session HeapAlloc grew %.0f -> %.0f B from 1k to 16k ticks (bound %.2fx)", heap1, heap16, bound)
	}
	if inuse16 > bound*inuse1 {
		t.Errorf("per-session HeapInuse grew %.0f -> %.0f B from 1k to 16k ticks (bound %.2fx)", inuse1, inuse16, bound)
	}
	if snap16 > bound*snap1 {
		t.Errorf("per-session snapshot grew %.0f -> %.0f B from 1k to 16k ticks (bound %.2fx)", snap1, snap16, bound)
	}
}
