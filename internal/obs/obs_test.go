package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

func TestCounterGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("a.count")
	c.Inc()
	c.Add(4)
	c.Add(-3) // ignored: counters are monotonic
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if again := r.Counter("a.count"); again != c {
		t.Fatal("get-or-create returned a different counter")
	}

	g := r.Gauge("a.gauge")
	g.Set(10)
	g.Add(-3)
	if got := g.Value(); got != 7 {
		t.Fatalf("gauge = %d, want 7", got)
	}
	g.SetMax(5) // below current: no change
	g.SetMax(42)
	if got := g.Value(); got != 42 {
		t.Fatalf("gauge after SetMax = %d, want 42", got)
	}
}

func TestHistogram(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h", []int64{10, 100, 1000})
	for _, v := range []int64{-5, 0, 10, 11, 100, 500, 1000, 5000} {
		h.Observe(v)
	}
	snap, ok := r.Snapshot().Histogram("h")
	if !ok {
		t.Fatal("histogram missing from snapshot")
	}
	// Buckets: <=10: -5,0,10 → 3; <=100: 11,100 → 2; <=1000: 500,1000 → 2; over: 5000 → 1.
	want := []int64{3, 2, 2, 1}
	for i, w := range want {
		if snap.Counts[i] != w {
			t.Fatalf("bucket %d = %d, want %d (counts %v)", i, snap.Counts[i], w, snap.Counts)
		}
	}
	if snap.Count != 8 || snap.Max != 5000 {
		t.Fatalf("count=%d max=%d, want 8/5000", snap.Count, snap.Max)
	}
	if snap.Sum != -5+0+10+11+100+500+1000+5000 {
		t.Fatalf("sum = %d", snap.Sum)
	}
	if m := snap.Mean(); m != float64(snap.Sum)/8 {
		t.Fatalf("mean = %g", m)
	}
	h.ObserveDuration(2 * time.Millisecond)
	if got := h.Count(); got != 9 {
		t.Fatalf("count after ObserveDuration = %d", got)
	}
}

func TestHistogramBadBounds(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("unsorted bounds did not panic")
		}
	}()
	NewRegistry().Histogram("bad", []int64{10, 10})
}

// TestNop: every nil handle must be callable and inert — this is the
// disabled-instrumentation contract the hot paths rely on.
func TestNop(t *testing.T) {
	var s *Scope = Nop
	if s.Enabled() {
		t.Fatal("nil scope reports enabled")
	}
	c, g, h := s.Counter("c"), s.Gauge("g"), s.Histogram("h", DurationBuckets())
	c.Inc()
	c.Add(3)
	g.Set(1)
	g.Add(1)
	g.SetMax(9)
	h.Observe(1)
	h.ObserveDuration(time.Second)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Enabled() {
		t.Fatal("nil handles recorded something")
	}
	var r *Registry
	if r.Counter("x") != nil || r.Scope("x") != nil {
		t.Fatal("nil registry handed out live handles")
	}
	r.Reset()
	if snap := r.Snapshot(); len(snap.Counters) != 0 {
		t.Fatal("nil registry snapshot not empty")
	}
}

func TestScopePrefix(t *testing.T) {
	r := NewRegistry()
	s := r.Scope("h264")
	s.Counter("nal_deleted").Add(7)
	if got := r.Snapshot().Counter("h264.nal_deleted"); got != 7 {
		t.Fatalf("scoped counter = %d, want 7", got)
	}
}

// TestSnapshotDeterministic: registration order must not leak into
// snapshot order, and two snapshots of the same state must be identical.
func TestSnapshotDeterministic(t *testing.T) {
	build := func(names []string) Snapshot {
		r := NewRegistry()
		for _, n := range names {
			r.Counter(n).Inc()
			r.Gauge("g." + n).Set(1)
			r.Histogram("h."+n, []int64{1}).Observe(1)
		}
		return r.Snapshot()
	}
	a := build([]string{"zeta", "alpha", "mid"})
	b := build([]string{"mid", "zeta", "alpha"})
	ja, _ := json.Marshal(a)
	jb, _ := json.Marshal(b)
	if !bytes.Equal(ja, jb) {
		t.Fatalf("snapshot depends on registration order:\n%s\n%s", ja, jb)
	}
	for i := 1; i < len(a.Counters); i++ {
		if a.Counters[i-1].Name >= a.Counters[i].Name {
			t.Fatalf("counters not sorted: %q >= %q", a.Counters[i-1].Name, a.Counters[i].Name)
		}
	}
}

func TestWriteJSON(t *testing.T) {
	r := NewRegistry()
	r.Scope("app").Counter("kills").Add(3)
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var snap Snapshot
	if err := json.Unmarshal(buf.Bytes(), &snap); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, buf.String())
	}
	if snap.Counter("app.kills") != 3 {
		t.Fatalf("JSON round trip lost value:\n%s", buf.String())
	}
	if !strings.Contains(buf.String(), "\"app.kills\"") {
		t.Fatalf("metric name missing:\n%s", buf.String())
	}
}

func TestReset(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c")
	h := r.Histogram("h", []int64{10})
	g := r.Gauge("g")
	c.Add(5)
	g.Set(9)
	h.Observe(3)
	r.Reset()
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 {
		t.Fatal("reset left values behind")
	}
	snap, _ := r.Snapshot().Histogram("h")
	if snap.Sum != 0 || snap.Max != 0 || snap.Counts[0] != 0 {
		t.Fatalf("reset left histogram state: %+v", snap)
	}
	c.Inc() // handles stay live after reset
	if c.Value() != 1 {
		t.Fatal("handle dead after reset")
	}
}

// TestOwnedHandles pins the instance-owned registration: a fresh live
// handle even on a nil scope, a later owner replaces an earlier one under
// the same name, and Reset leaves owned handles alone.
func TestOwnedHandles(t *testing.T) {
	var nilScope *Scope
	c := nilScope.NewCounter("c")
	c.Inc()
	if c.Value() != 1 {
		t.Fatal("owned counter from a nil scope does not count")
	}
	r := NewRegistry()
	s := r.Scope("srv")
	first := s.NewCounter("accepted")
	first.Add(7)
	second := s.NewCounter("accepted")
	second.Add(2)
	g := s.NewGauge("conns")
	g.Set(3)
	h := s.NewHistogram("rows", []int64{4})
	h.Observe(5)
	shared := r.Counter("shared")
	shared.Add(9)
	r.Reset()
	snap := r.Snapshot()
	if got := snap.Counter("srv.accepted"); got != 2 || first.Value() != 7 {
		t.Errorf("srv.accepted = %d (first owner %d), want the second owner's 2 and 7", got, first.Value())
	}
	if hs, _ := snap.Histogram("srv.rows"); snap.Gauge("srv.conns") != 3 || hs.Count != 1 || hs.Max != 5 {
		t.Errorf("Reset moved owned handles: conns %d, rows %+v", snap.Gauge("srv.conns"), hs)
	}
	if shared.Value() != 0 {
		t.Errorf("Reset left shared counter at %d", shared.Value())
	}
}

func TestBucketHelpers(t *testing.T) {
	for _, bs := range [][]int64{DurationBuckets(), SizeBuckets(), LinearBuckets(0, 8, 16)} {
		for i := 1; i < len(bs); i++ {
			if bs[i] <= bs[i-1] {
				t.Fatalf("helper bounds not ascending: %v", bs)
			}
		}
	}
	if lb := LinearBuckets(2, 3, 3); lb[0] != 2 || lb[1] != 5 || lb[2] != 8 {
		t.Fatalf("LinearBuckets = %v", lb)
	}
}

func TestNestedScope(t *testing.T) {
	reg := NewRegistry()
	shard := reg.Scope("fleet").Scope("shard03")
	shard.Counter("drops").Add(4)
	shard.Gauge("queue_depth").Set(9)
	snap := reg.Snapshot()
	if got := snap.Counter("fleet.shard03.drops"); got != 4 {
		t.Errorf("nested counter = %d, want 4", got)
	}
	if got := snap.Gauge("fleet.shard03.queue_depth"); got != 9 {
		t.Errorf("nested gauge = %d, want 9", got)
	}
	var nilScope *Scope
	if nested := nilScope.Scope("x"); nested != nil {
		t.Error("nil scope nested to non-nil")
	}
	if nilScope.Scope("x").Counter("c") != nil {
		t.Error("nil nested scope handed out live counter")
	}
}
