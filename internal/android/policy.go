package android

import (
	"fmt"
	"sort"

	"time"

	"affectedge/internal/emotion"
	"affectedge/internal/personality"
)

// KillPolicy selects which background process to evict under pressure.
// Candidates arrive pre-filtered (background, killable) and pre-sorted by
// creation time then name. The slice is the device's scratch: Victim
// only reads it, and must not keep it or its processes past the call
// (the device reuses a killed process for a later cold start).
type KillPolicy interface {
	Name() string
	Victim(candidates []*Process, now time.Duration, mood emotion.Mood) *Process
}

// FIFOPolicy is the stock Android baseline of §5.2: evict the
// longest-running background process first.
type FIFOPolicy struct{}

// Name implements KillPolicy.
func (FIFOPolicy) Name() string { return "fifo" }

// Victim implements KillPolicy: candidates are sorted oldest-first.
func (FIFOPolicy) Victim(candidates []*Process, now time.Duration, mood emotion.Mood) *Process {
	if len(candidates) == 0 {
		return nil
	}
	return candidates[0]
}

// AffectTable is the paper's Background App Affect Table: the probability
// that each app is used next, conditioned on the detected mood.
type AffectTable struct {
	prob map[emotion.Mood]map[string]float64
}

// NewAffectTable builds the table from per-mood app distributions.
func NewAffectTable(dist map[emotion.Mood]map[string]float64) (*AffectTable, error) {
	if len(dist) == 0 {
		return nil, fmt.Errorf("android: empty affect table")
	}
	t := &AffectTable{prob: map[emotion.Mood]map[string]float64{}}
	for mood, apps := range dist {
		if !mood.Valid() {
			return nil, fmt.Errorf("android: invalid mood %d in affect table", int(mood))
		}
		// Sum in sorted app order: float addition is not associative, and a
		// map-order sum perturbs the normalization divisor in the last ulp
		// between runs, which flips near-tie Victim comparisons.
		names := make([]string, 0, len(apps))
		for a := range apps {
			names = append(names, a)
		}
		sort.Strings(names)
		var sum float64
		for _, a := range names {
			if apps[a] < 0 {
				return nil, fmt.Errorf("android: negative probability in affect table")
			}
			sum += apps[a]
		}
		if sum == 0 {
			return nil, fmt.Errorf("android: mood %v has empty distribution", mood)
		}
		norm := map[string]float64{}
		for a, p := range apps {
			norm[a] = p / sum
		}
		t.prob[mood] = norm
	}
	return t, nil
}

// AffectTableFromSubjects derives the table from the personality study:
// each mood uses its proxy subject's category distribution, spread over
// the catalog apps of each category (first app in a category gets the
// larger share, mirroring one dominant app per category).
func AffectTableFromSubjects() (*AffectTable, error) {
	dist := map[emotion.Mood]map[string]float64{}
	for _, mood := range []emotion.Mood{emotion.Excited, emotion.CalmMood} {
		subj, err := personality.SubjectByMood(mood)
		if err != nil {
			return nil, err
		}
		dist[mood] = SpreadOverCatalog(subj.Usage)
	}
	return NewAffectTable(dist)
}

// SpreadOverCatalog converts a category distribution into a per-app
// distribution over the standard catalog: within a category, the first
// app takes 60% of the category mass, the rest split the remainder
// equally (one dominant app per category, as in real usage).
func SpreadOverCatalog(usage map[personality.Category]float64) map[string]float64 {
	// Accumulate in sorted category order: out's values are float sums, and
	// map-order addition perturbs them in the last ulp — enough to flip
	// near-tie kill-policy comparisons between otherwise identical runs.
	cats := make([]personality.Category, 0, len(usage))
	for cat := range usage {
		cats = append(cats, cat)
	}
	sort.Slice(cats, func(i, j int) bool { return cats[i] < cats[j] })
	out := map[string]float64{}
	for _, cat := range cats {
		mass := usage[cat]
		apps := AppsInCategory(cat)
		if len(apps) == 0 {
			continue
		}
		if len(apps) == 1 {
			out[apps[0].Name] += mass
			continue
		}
		out[apps[0].Name] += 0.6 * mass
		rest := 0.4 * mass / float64(len(apps)-1)
		for _, a := range apps[1:] {
			out[a.Name] += rest
		}
	}
	return out
}

// Prob returns P(app | mood), 0 for unknown pairs.
func (t *AffectTable) Prob(mood emotion.Mood, app string) float64 {
	if m, ok := t.prob[mood]; ok {
		return m[app]
	}
	return 0
}

// Rank returns all known apps for a mood ordered most-likely first, the
// paper's App Rank Generator output.
func (t *AffectTable) Rank(mood emotion.Mood) []string {
	m := t.prob[mood]
	apps := make([]string, 0, len(m))
	for a := range m {
		apps = append(apps, a)
	}
	sort.Slice(apps, func(i, j int) bool {
		if m[apps[i]] != m[apps[j]] {
			return m[apps[i]] > m[apps[j]]
		}
		return apps[i] < apps[j]
	})
	return apps
}

// Learn updates the table with an observed launch (additive counts,
// renormalized lazily via Prob's relative ordering being scale-free).
func (t *AffectTable) Learn(mood emotion.Mood, app string) {
	if !mood.Valid() {
		return
	}
	m, ok := t.prob[mood]
	if !ok {
		m = map[string]float64{}
		t.prob[mood] = m
	}
	m[app]++
}

// LearnedAffectTable builds an empty table that is populated purely from
// observed launches via Learn — the online-learning variant.
func LearnedAffectTable() *AffectTable {
	return &AffectTable{prob: map[emotion.Mood]map[string]float64{}}
}

// EmotionalPolicy is the paper's Emotional Background Manager: under
// pressure it evicts the background app least likely to be used given the
// current mood (lowest affect-table probability), breaking ties FIFO.
type EmotionalPolicy struct {
	Table *AffectTable
}

// NewEmotionalPolicy wraps an affect table as a kill policy.
func NewEmotionalPolicy(table *AffectTable) (*EmotionalPolicy, error) {
	if table == nil {
		return nil, fmt.Errorf("android: nil affect table")
	}
	return &EmotionalPolicy{Table: table}, nil
}

// Name implements KillPolicy.
func (p *EmotionalPolicy) Name() string { return "emotional" }

// Victim implements KillPolicy.
func (p *EmotionalPolicy) Victim(candidates []*Process, now time.Duration, mood emotion.Mood) *Process {
	if len(candidates) == 0 {
		return nil
	}
	best := candidates[0]
	bestProb := p.Table.Prob(mood, best.App.Name)
	for _, c := range candidates[1:] {
		prob := p.Table.Prob(mood, c.App.Name)
		if prob < bestProb {
			best, bestProb = c, prob
		}
	}
	return best
}
