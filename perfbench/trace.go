package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call made by the benchmark into a layer.
type span struct {
	name       string
	id, parent uint64
	req        uint64 // request id: spans of one request share it
	start, end time.Time
}

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced run: every method is a no-op behind a nil check.
type tracer struct {
	epoch time.Time
	ids   atomic.Uint64
	mu    sync.Mutex
	logs  []*spanLog
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// newID reserves a span id, for a parent whose end is not known yet.
func (t *tracer) newID() uint64 {
	if t == nil {
		return 0
	}
	return t.ids.Add(1)
}

// log returns a span log owned by one goroutine.
func (t *tracer) log() *spanLog {
	if t == nil {
		return nil
	}
	l := &spanLog{tr: t, spans: make([]span, 0, 1024)}
	t.mu.Lock()
	t.logs = append(t.logs, l)
	t.mu.Unlock()
	return l
}

// spanLog is one goroutine's span buffer; it needs no locking.
type spanLog struct {
	tr    *tracer
	spans []span
}

// add records a finished span under a fresh id.
func (l *spanLog) add(name string, parent, req uint64, start, end time.Time) {
	if l != nil {
		l.addID(l.tr.ids.Add(1), name, parent, req, start, end)
	}
}

// addID records a span under an id reserved with newID.
func (l *spanLog) addID(id uint64, name string, parent, req uint64, start, end time.Time) {
	if l == nil {
		return
	}
	l.spans = append(l.spans, span{name: name, id: id, parent: parent, req: req, start: start, end: end})
}

// durations returns the durations of every span called name.
func (t *tracer) durations(name string) []float64 {
	if t == nil {
		return nil
	}
	var out []float64
	for _, l := range t.logs {
		for _, s := range l.spans {
			if s.name == name {
				out = append(out, float64(s.end.Sub(s.start)))
			}
		}
	}
	return out
}

// write dumps every span as a tab-separated file sorted by start time.
// Times are nanoseconds since the tracer was created.
func (t *tracer) write(path string) error {
	var all []span
	for _, l := range t.logs {
		all = append(all, l.spans...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].start.Before(all[j].start) })
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "id\tparent\treq\tname\tstart_ns\tend_ns")
	for _, s := range all {
		fmt.Fprintf(w, "%d\t%d\t%d\t%s\t%d\t%d\n", s.id, s.parent, s.req, s.name,
			s.start.Sub(t.epoch).Nanoseconds(), s.end.Sub(t.epoch).Nanoseconds())
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
