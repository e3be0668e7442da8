// Package trace records process-lifecycle events during the app-management
// simulation and renders them: an ASCII lifespan diagram equivalent to the
// paper's Fig 9 (green span = process alive, grey = killed), a CSV export,
// and a Chrome/Perfetto-compatible JSON trace (the paper recovers its data
// through the Perfetto developer API).
package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"time"
)

// EventKind is a process lifecycle transition.
type EventKind int

// Process lifecycle events.
const (
	EventStart      EventKind = iota // process created (cold start)
	EventForeground                  // brought to foreground
	EventBackground                  // moved to background
	EventKill                        // killed by the background manager
)

// String returns the event name.
func (k EventKind) String() string {
	switch k {
	case EventStart:
		return "start"
	case EventForeground:
		return "foreground"
	case EventBackground:
		return "background"
	case EventKill:
		return "kill"
	}
	return fmt.Sprintf("event(%d)", int(k))
}

// Event is one recorded lifecycle transition.
type Event struct {
	At   time.Duration
	App  string
	Kind EventKind
	// Note carries policy context ("over process limit", "low memory").
	Note string
}

// Log is an append-only event recorder. A nil *Log is an empty log
// that records nothing: Record is a no-op and Events returns nil, so an
// owner that keeps no history (a fleet-served device) holds a nil log
// instead of one that grows with run length.
type Log struct {
	events []Event
}

// New returns an empty log.
func New() *Log { return &Log{} }

// FromEvents rebuilds a log from recorded events (the shape Events
// returns), copying the slice. Device snapshot/restore uses this to carry
// a process-lifecycle history across serialization.
func FromEvents(events []Event) *Log {
	return &Log{events: append([]Event(nil), events...)}
}

// Record appends an event; on a nil log it does nothing.
func (l *Log) Record(at time.Duration, app string, kind EventKind, note string) {
	if l == nil {
		return
	}
	l.events = append(l.events, Event{At: at, App: app, Kind: kind, Note: note})
}

// Events returns the recorded events in order (nil on a nil log).
func (l *Log) Events() []Event {
	if l == nil {
		return nil
	}
	return l.events
}

// Apps returns the distinct app names in first-seen order.
func (l *Log) Apps() []string {
	var out []string
	seen := map[string]bool{}
	for _, e := range l.Events() {
		if !seen[e.App] {
			seen[e.App] = true
			out = append(out, e.App)
		}
	}
	return out
}

// span is one alive interval of a process.
type span struct{ from, to time.Duration }

// lifespans reconstructs alive intervals per app, clipped to
// [0, horizon]: spans starting at or after the horizon are dropped, spans
// extending past it are truncated, and still-open spans end at the
// horizon. A zero (or negative) horizon therefore yields no spans rather
// than negative durations.
func (l *Log) lifespans(horizon time.Duration) map[string][]span {
	alive := map[string]time.Duration{}
	out := map[string][]span{}
	started := map[string]bool{}
	for _, e := range l.Events() {
		switch e.Kind {
		case EventStart:
			if !started[e.App] {
				alive[e.App] = e.At
				started[e.App] = true
			}
		case EventKill:
			if started[e.App] {
				out[e.App] = append(out[e.App], span{alive[e.App], e.At})
				started[e.App] = false
			}
		}
	}
	for app, ok := range started {
		if ok {
			out[app] = append(out[app], span{alive[app], horizon})
		}
	}
	for app, spans := range out {
		kept := spans[:0]
		for _, s := range spans {
			if s.from >= horizon {
				continue
			}
			if s.to > horizon {
				s.to = horizon
			}
			kept = append(kept, s)
		}
		if len(kept) == 0 {
			delete(out, app)
		} else {
			out[app] = kept
		}
	}
	return out
}

// RenderASCII draws the Fig 9-style process diagram: one row per app,
// width columns over [0, horizon], '=' while the process lives, '.' while
// it is dead. Apps render in first-seen order.
func (l *Log) RenderASCII(horizon time.Duration, width int) string {
	if width <= 0 {
		width = 60
	}
	spans := l.lifespans(horizon)
	apps := l.Apps()
	var b strings.Builder
	nameW := 0
	for _, a := range apps {
		if len(a) > nameW {
			nameW = len(a)
		}
	}
	for _, app := range apps {
		row := make([]byte, width)
		for i := range row {
			row[i] = '.'
		}
		for _, s := range spans[app] {
			lo := int(float64(s.from) / float64(horizon) * float64(width))
			hi := int(float64(s.to) / float64(horizon) * float64(width))
			if hi >= width {
				hi = width - 1
			}
			for i := lo; i <= hi && i >= 0; i++ {
				row[i] = '='
			}
		}
		fmt.Fprintf(&b, "%-*s |%s|\n", nameW, app, row)
	}
	return b.String()
}

// AliveAt returns how many processes are alive at time t.
func (l *Log) AliveAt(t, horizon time.Duration) int {
	var n int
	for _, spans := range l.lifespans(horizon) {
		for _, s := range spans {
			if t >= s.from && t < s.to {
				n++
				break
			}
		}
	}
	return n
}

// KillCount returns the number of kill events, optionally per app (empty
// app counts all).
func (l *Log) KillCount(app string) int {
	var n int
	for _, e := range l.Events() {
		if e.Kind == EventKill && (app == "" || e.App == app) {
			n++
		}
	}
	return n
}

// WriteCSV exports the event log as CSV: at_ms,app,event,note.
func (l *Log) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "at_ms,app,event,note"); err != nil {
		return err
	}
	for _, e := range l.Events() {
		if _, err := fmt.Fprintf(w, "%d,%s,%s,%s\n",
			e.At.Milliseconds(), e.App, e.Kind, e.Note); err != nil {
			return err
		}
	}
	return nil
}

// chromeEvent is the Chrome trace-event JSON wire format Perfetto accepts.
type chromeEvent struct {
	Name  string `json:"name"`
	Phase string `json:"ph"`
	TS    int64  `json:"ts"` // microseconds
	PID   int    `json:"pid"`
	TID   int    `json:"tid"`
}

// WriteChromeTrace exports begin/end duration events per process lifespan
// in the Chrome trace-event format that Perfetto loads. Events are
// ordered by timestamp; ties keep the apps' first-seen order, and an
// app's spans their order in time, so one log always exports the same
// bytes.
func (l *Log) WriteChromeTrace(w io.Writer, horizon time.Duration) error {
	spans := l.lifespans(horizon)
	var evs []chromeEvent
	for i, app := range l.Apps() {
		for _, s := range spans[app] {
			evs = append(evs, chromeEvent{Name: app, Phase: "B", TS: s.from.Microseconds(), PID: i + 1, TID: 1})
			evs = append(evs, chromeEvent{Name: app, Phase: "E", TS: s.to.Microseconds(), PID: i + 1, TID: 1})
		}
	}
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].TS < evs[j].TS })
	return json.NewEncoder(w).Encode(evs)
}
