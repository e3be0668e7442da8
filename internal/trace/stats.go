package trace

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// AppStats summarizes one process's lifecycle over a run.
type AppStats struct {
	App          string
	Starts       int
	Kills        int
	Foregrounds  int
	TotalAlive   time.Duration
	MeanLifetime time.Duration
}

// Stats computes per-app lifecycle statistics up to horizon, sorted by
// descending foreground count (most-used first).
func (l *Log) Stats(horizon time.Duration) []AppStats {
	byApp := map[string]*AppStats{}
	get := func(app string) *AppStats {
		s, ok := byApp[app]
		if !ok {
			s = &AppStats{App: app}
			byApp[app] = s
		}
		return s
	}
	for _, e := range l.Events() {
		s := get(e.App)
		switch e.Kind {
		case EventStart:
			s.Starts++
		case EventKill:
			s.Kills++
		case EventForeground:
			s.Foregrounds++
		}
	}
	for app, spans := range l.lifespans(horizon) {
		s := get(app)
		for _, sp := range spans {
			s.TotalAlive += sp.to - sp.from
		}
		if n := len(spans); n > 0 {
			s.MeanLifetime = s.TotalAlive / time.Duration(n)
		}
	}
	out := make([]AppStats, 0, len(byApp))
	for _, s := range byApp {
		out = append(out, *s)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Foregrounds != out[j].Foregrounds {
			return out[i].Foregrounds > out[j].Foregrounds
		}
		return out[i].App < out[j].App
	})
	return out
}

// FormatStats renders the statistics table.
func FormatStats(stats []AppStats) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-20s%8s%8s%8s%12s%14s\n", "app", "fg", "starts", "kills", "alive", "mean life")
	for _, s := range stats {
		fmt.Fprintf(&b, "%-20s%8d%8d%8d%12v%14v\n",
			s.App, s.Foregrounds, s.Starts, s.Kills,
			s.TotalAlive.Round(time.Second), s.MeanLifetime.Round(time.Second))
	}
	return b.String()
}
