package trace

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

// TestNilLog: a nil log records nothing and reads as an empty log.
func TestNilLog(t *testing.T) {
	var l *Log
	l.Record(time.Second, "chrome", EventStart, "cold start")
	if ev := l.Events(); ev != nil {
		t.Fatalf("nil log has events %v", ev)
	}
	if apps, st := l.Apps(), l.Stats(time.Minute); len(apps) != 0 || len(st) != 0 {
		t.Fatalf("nil log has apps %v, stats %v", apps, st)
	}
	if l.KillCount("") != 0 || l.AliveAt(time.Second, time.Minute) != 0 || l.RenderASCII(time.Minute, 10) != "" {
		t.Fatal("nil log reads as non-empty")
	}
	var csv bytes.Buffer
	if err := l.WriteCSV(&csv); err != nil || csv.String() != "at_ms,app,event,note\n" {
		t.Fatalf("nil log CSV %q, %v", csv.String(), err)
	}
}

func TestLifespanReconstruction(t *testing.T) {
	l := New()
	l.Record(0, "chrome", EventStart, "")
	l.Record(2*time.Minute, "chrome", EventKill, "limit")
	l.Record(3*time.Minute, "chrome", EventStart, "")
	l.Record(1*time.Minute, "maps", EventStart, "")
	horizon := 5 * time.Minute
	if got := l.AliveAt(1*time.Minute, horizon); got != 2 {
		t.Errorf("alive at 1m = %d, want 2", got)
	}
	if got := l.AliveAt(2*time.Minute+time.Second, horizon); got != 1 {
		t.Errorf("alive at 2m1s = %d, want 1 (chrome killed)", got)
	}
	if got := l.AliveAt(4*time.Minute, horizon); got != 2 {
		t.Errorf("alive at 4m = %d, want 2 (chrome restarted)", got)
	}
	if l.KillCount("") != 1 || l.KillCount("chrome") != 1 || l.KillCount("maps") != 0 {
		t.Error("kill counts wrong")
	}
}

func TestRenderASCII(t *testing.T) {
	l := New()
	l.Record(0, "a", EventStart, "")
	l.Record(5*time.Minute, "a", EventKill, "")
	l.Record(0, "bb", EventStart, "")
	out := l.RenderASCII(10*time.Minute, 20)
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("%d rows, want 2:\n%s", len(lines), out)
	}
	// a: alive first half then dead; bb alive throughout.
	if !strings.Contains(lines[0], "=") || !strings.Contains(lines[0], ".") {
		t.Errorf("row a should mix = and .: %s", lines[0])
	}
	if strings.Contains(lines[1], ".") {
		t.Errorf("row bb should be fully alive: %s", lines[1])
	}
	// Rows align: same width.
	if len(lines[0]) != len(lines[1]) {
		t.Error("rows not aligned")
	}
}

func TestAppsFirstSeenOrder(t *testing.T) {
	l := New()
	l.Record(0, "z", EventStart, "")
	l.Record(1, "a", EventStart, "")
	l.Record(2, "z", EventKill, "")
	apps := l.Apps()
	if len(apps) != 2 || apps[0] != "z" || apps[1] != "a" {
		t.Errorf("apps = %v", apps)
	}
}

func TestWriteCSV(t *testing.T) {
	l := New()
	l.Record(1500*time.Millisecond, "mail", EventStart, "cold")
	var buf bytes.Buffer
	if err := l.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.HasPrefix(out, "at_ms,app,event,note\n") {
		t.Errorf("missing header: %q", out)
	}
	if !strings.Contains(out, "1500,mail,start,cold") {
		t.Errorf("missing row: %q", out)
	}
}

func TestWriteChromeTrace(t *testing.T) {
	l := New()
	l.Record(0, "mail", EventStart, "")
	l.Record(time.Minute, "mail", EventKill, "")
	var buf bytes.Buffer
	if err := l.WriteChromeTrace(&buf, 2*time.Minute); err != nil {
		t.Fatal(err)
	}
	var evs []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &evs); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if len(evs) != 2 {
		t.Fatalf("%d events, want 2 (B+E)", len(evs))
	}
	if evs[0]["ph"] != "B" || evs[1]["ph"] != "E" {
		t.Errorf("phases %v %v", evs[0]["ph"], evs[1]["ph"])
	}
	if evs[1]["ts"].(float64) != 60e6 {
		t.Errorf("end ts %v, want 6e7 us", evs[1]["ts"])
	}
}

// TestWriteChromeTraceDeterministic exports one log whose apps share
// timestamps many times over: every export must be the same bytes, with
// tied events in the apps' first-seen order.
func TestWriteChromeTraceDeterministic(t *testing.T) {
	l := New()
	apps := []string{"mail", "maps", "camera", "music", "chat", "game", "news", "shop"}
	for round := 0; round < 3; round++ {
		at := time.Duration(round) * time.Minute
		for _, app := range apps {
			l.Record(at, app, EventStart, "")
		}
		for _, app := range apps {
			l.Record(at+30*time.Second, app, EventKill, "")
		}
	}
	export := func() []byte {
		var buf bytes.Buffer
		if err := l.WriteChromeTrace(&buf, 5*time.Minute); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	first := export()
	for i := 0; i < 20; i++ {
		if got := export(); !bytes.Equal(got, first) {
			t.Fatalf("export %d differs from the first:\n%s\n%s", i+1, got, first)
		}
	}
	var evs []struct {
		Name string `json:"name"`
		TS   int64  `json:"ts"`
	}
	if err := json.Unmarshal(first, &evs); err != nil {
		t.Fatal(err)
	}
	if len(evs) != 2*3*len(apps) {
		t.Fatalf("%d events, want %d", len(evs), 2*3*len(apps))
	}
	for i, e := range evs {
		if want := apps[i%len(apps)]; e.Name != want {
			t.Fatalf("event %d is %s at %d us, want %s (first-seen order among ties)", i, e.Name, e.TS, want)
		}
	}
}

func TestDoubleStartIgnored(t *testing.T) {
	l := New()
	l.Record(0, "x", EventStart, "")
	l.Record(time.Second, "x", EventStart, "") // duplicate while alive
	l.Record(2*time.Second, "x", EventKill, "")
	if got := l.AliveAt(1500*time.Millisecond, time.Minute); got != 1 {
		t.Errorf("alive = %d, want 1", got)
	}
	if got := l.AliveAt(3*time.Second, time.Minute); got != 0 {
		t.Errorf("alive after kill = %d, want 0", got)
	}
}

func TestEventKindString(t *testing.T) {
	if EventStart.String() != "start" || EventKill.String() != "kill" {
		t.Error("event names wrong")
	}
	if EventKind(42).String() != "event(42)" {
		t.Error("unknown event name wrong")
	}
}
