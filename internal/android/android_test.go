package android

import (
	"testing"
	"time"

	"affectedge/internal/emotion"
	"affectedge/internal/personality"
)

func TestCatalogValid(t *testing.T) {
	if err := ValidateCatalog(); err != nil {
		t.Fatal(err)
	}
	if len(CatalogByName()) != 44 {
		t.Error("name index size wrong")
	}
	if len(AppsInCategory(personality.Messaging)) < 2 {
		t.Error("messaging should have several apps")
	}
	// The messaging workhorse is periodic (never killed).
	if !CatalogByName()["messages"].Periodic {
		t.Error("messages app should be periodic")
	}
}

func newTestDevice(t testing.TB, policy KillPolicy) *Device {
	t.Helper()
	d, err := NewDevice(DefaultDeviceConfig(), policy)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestColdAndWarmStarts(t *testing.T) {
	d := newTestDevice(t, FIFOPolicy{})
	lat1, err := d.Launch(0, "chrome")
	if err != nil {
		t.Fatal(err)
	}
	m := d.Metrics()
	if m.ColdStarts != 1 || m.WarmStarts != 0 {
		t.Fatalf("after first launch: %+v", m)
	}
	if m.BytesLoaded != CatalogByName()["chrome"].FileBytes {
		t.Errorf("bytes loaded %d", m.BytesLoaded)
	}
	// Second launch while cached: warm.
	lat2, err := d.Launch(time.Minute, "chrome")
	if err != nil {
		t.Fatal(err)
	}
	m = d.Metrics()
	if m.WarmStarts != 1 {
		t.Fatalf("after relaunch: %+v", m)
	}
	if lat2 >= lat1 {
		t.Errorf("warm latency %v not below cold %v", lat2, lat1)
	}
	if m.BytesLoaded != CatalogByName()["chrome"].FileBytes {
		t.Error("warm start loaded bytes")
	}
}

func TestLaunchUnknownApp(t *testing.T) {
	d := newTestDevice(t, FIFOPolicy{})
	if _, err := d.Launch(0, "no-such-app"); err == nil {
		t.Error("unknown app accepted")
	}
}

func TestMemoryPressureKills(t *testing.T) {
	d := newTestDevice(t, FIFOPolicy{})
	// Launch many large apps; RAM (4 GB with 1 GB reserve) forces kills.
	apps := []string{"chrome", "streambox", "live-tv", "megashop", "friendfeed",
		"snapshare", "clip-maker", "shortclips", "pro-camera", "voip-call",
		"ride-hail", "clouddrive", "gmail", "music-box"}
	for i, a := range apps {
		if _, err := d.Launch(time.Duration(i)*time.Minute, a); err != nil {
			t.Fatal(err)
		}
	}
	m := d.Metrics()
	if m.Kills == 0 {
		t.Fatal("no kills under memory pressure")
	}
	// RAM budget respected after every launch.
	if d.usedRAM() > DefaultDeviceConfig().RAMBytes {
		t.Errorf("RAM over budget: %d", d.usedRAM())
	}
	// Oldest (FIFO) should have been killed: chrome is gone.
	if d.Alive("chrome") {
		t.Error("FIFO kept the oldest app")
	}
	// Foreground app never killed.
	if !d.Alive(apps[len(apps)-1]) {
		t.Error("foreground app killed")
	}
}

func TestSystemAndPeriodicExempt(t *testing.T) {
	d := newTestDevice(t, FIFOPolicy{})
	if _, err := d.Launch(0, "messages"); err != nil { // periodic
		t.Fatal(err)
	}
	if _, err := d.Launch(time.Second, "settings"); err != nil { // system
		t.Fatal(err)
	}
	apps := []string{"chrome", "streambox", "live-tv", "megashop", "friendfeed",
		"snapshare", "clip-maker", "shortclips", "pro-camera", "voip-call",
		"ride-hail", "clouddrive", "gmail", "music-box", "radio-stream"}
	for i, a := range apps {
		if _, err := d.Launch(time.Duration(i+1)*time.Minute, a); err != nil {
			t.Fatal(err)
		}
	}
	if !d.Alive("messages") {
		t.Error("periodic messages app was killed")
	}
	if !d.Alive("settings") {
		t.Error("system app was killed")
	}
}

func TestEmotionalPolicyKillsUnlikelyApps(t *testing.T) {
	table, err := AffectTableFromSubjects()
	if err != nil {
		t.Fatal(err)
	}
	policy, err := NewEmotionalPolicy(table)
	if err != nil {
		t.Fatal(err)
	}
	d := newTestDevice(t, policy)
	if err := d.SetMood(emotion.Excited); err != nil {
		t.Fatal(err)
	}
	// Cache one excited-favorite (calling) and one excited-unlikely (tv).
	if _, err := d.Launch(0, "voip-call"); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Launch(time.Second, "live-tv"); err != nil {
		t.Fatal(err)
	}
	// Fill memory to force exactly some kills.
	apps := []string{"chrome", "streambox", "megashop", "friendfeed",
		"snapshare", "clip-maker", "shortclips", "pro-camera",
		"clouddrive", "gmail", "music-box"}
	for i, a := range apps {
		if _, err := d.Launch(time.Duration(i+2)*time.Minute, a); err != nil {
			t.Fatal(err)
		}
	}
	if d.Metrics().Kills == 0 {
		t.Fatal("no pressure generated")
	}
	// The excited-mood table ranks calling far above TV: voip-call should
	// outlive live-tv.
	if d.Alive("live-tv") && !d.Alive("voip-call") {
		t.Error("emotional policy killed a mood favorite before an unlikely app")
	}
	if table.Prob(emotion.Excited, "voip-call") <= table.Prob(emotion.Excited, "live-tv") {
		t.Error("affect table ordering wrong for excited mood")
	}
}

func TestAffectTableRank(t *testing.T) {
	table, err := AffectTableFromSubjects()
	if err != nil {
		t.Fatal(err)
	}
	rank := table.Rank(emotion.Excited)
	if len(rank) == 0 {
		t.Fatal("empty rank")
	}
	// Descending probabilities.
	for i := 1; i < len(rank); i++ {
		if table.Prob(emotion.Excited, rank[i]) > table.Prob(emotion.Excited, rank[i-1]) {
			t.Fatal("rank not descending")
		}
	}
	// Messaging dominates every mood.
	if rank[0] != "messages" {
		t.Errorf("top excited app %q, want messages", rank[0])
	}
}

func TestAffectTableValidation(t *testing.T) {
	if _, err := NewAffectTable(nil); err == nil {
		t.Error("empty table accepted")
	}
	if _, err := NewAffectTable(map[emotion.Mood]map[string]float64{
		emotion.Excited: {"a": -1},
	}); err == nil {
		t.Error("negative probability accepted")
	}
	if _, err := NewAffectTable(map[emotion.Mood]map[string]float64{
		emotion.Mood(9): {"a": 1},
	}); err == nil {
		t.Error("invalid mood accepted")
	}
	if _, err := NewEmotionalPolicy(nil); err == nil {
		t.Error("nil table accepted")
	}
}

func TestLearnedTable(t *testing.T) {
	table := LearnedAffectTable()
	if table.Prob(emotion.Excited, "chrome") != 0 {
		t.Error("fresh table should be empty")
	}
	table.Learn(emotion.Excited, "chrome")
	table.Learn(emotion.Excited, "chrome")
	table.Learn(emotion.Excited, "gmail")
	if table.Prob(emotion.Excited, "chrome") <= table.Prob(emotion.Excited, "gmail") {
		t.Error("learning did not raise the frequent app")
	}
	table.Learn(emotion.Mood(9), "x") // ignored
	if table.Prob(emotion.Mood(9), "x") != 0 {
		t.Error("invalid mood learned")
	}
}

func TestSpreadOverCatalogConservesMass(t *testing.T) {
	subj, err := personality.SubjectByMood(emotion.Excited)
	if err != nil {
		t.Fatal(err)
	}
	spread := SpreadOverCatalog(subj.Usage)
	var sum float64
	for _, v := range spread {
		sum += v
	}
	if sum < 0.999 || sum > 1.001 {
		t.Errorf("spread mass %g, want 1", sum)
	}
}

func TestRunValidation(t *testing.T) {
	if _, err := Run(DefaultDeviceConfig(), FIFOPolicy{}, nil); err == nil {
		t.Error("empty workload accepted")
	}
	bad := []WorkloadEvent{
		{At: time.Minute, App: "chrome", Mood: emotion.CalmMood},
		{At: time.Second, App: "gmail", Mood: emotion.CalmMood},
	}
	if _, err := Run(DefaultDeviceConfig(), FIFOPolicy{}, bad); err == nil {
		t.Error("unordered workload accepted")
	}
}

func TestDeviceValidation(t *testing.T) {
	if _, err := NewDevice(DeviceConfig{}, FIFOPolicy{}); err == nil {
		t.Error("zero config accepted")
	}
	if _, err := NewDevice(DefaultDeviceConfig(), nil); err == nil {
		t.Error("nil policy accepted")
	}
	d := newTestDevice(t, FIFOPolicy{})
	if err := d.SetMood(emotion.Mood(5)); err == nil {
		t.Error("invalid mood accepted")
	}
}

func TestTraceRecordsLifecycle(t *testing.T) {
	d := newTestDevice(t, FIFOPolicy{})
	if _, err := d.Launch(0, "chrome"); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Launch(time.Minute, "gmail"); err != nil {
		t.Fatal(err)
	}
	log := d.Trace()
	if len(log.Events()) < 3 { // start, fg, bg, start, fg
		t.Errorf("only %d trace events", len(log.Events()))
	}
	if got := log.AliveAt(30*time.Second, 2*time.Minute); got != 1 {
		t.Errorf("alive at 30s = %d, want 1", got)
	}
}

func TestMemoryMetricsDetail(t *testing.T) {
	d := newTestDevice(t, FIFOPolicy{})
	apps := []string{"chrome", "streambox", "live-tv", "megashop", "friendfeed",
		"snapshare", "clip-maker", "shortclips", "pro-camera", "voip-call",
		"ride-hail", "clouddrive", "gmail", "music-box"}
	for i, a := range apps {
		if _, err := d.Launch(time.Duration(i)*time.Minute, a); err != nil {
			t.Fatal(err)
		}
	}
	m := d.Metrics()
	if m.PeakRAM <= DefaultDeviceConfig().SystemReserveBytes {
		t.Error("peak RAM not tracked")
	}
	if m.PeakRAM > DefaultDeviceConfig().RAMBytes+600*mb {
		t.Errorf("peak RAM %d far beyond budget", m.PeakRAM)
	}
	if m.KillsByLimit+m.KillsByMemory != m.Kills {
		t.Errorf("kill split %d+%d != %d", m.KillsByLimit, m.KillsByMemory, m.Kills)
	}
	if m.Kills > 0 && m.KillsByMemory == 0 {
		t.Error("large-app workload should trigger memory kills")
	}
}

func TestCatalogNames(t *testing.T) {
	names := CatalogNames()
	apps := Catalog()
	if len(names) != len(apps) {
		t.Fatalf("%d names, %d apps", len(names), len(apps))
	}
	for i, a := range apps {
		if names[i] != a.Name {
			t.Fatalf("name %d = %q, catalog order says %q", i, names[i], a.Name)
		}
	}
}
