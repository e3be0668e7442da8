package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func baseOpts() options {
	return options{
		Sessions: 40,
		Shards:   4,
		Duration: 5 * time.Second,
		Tick:     time.Second,
		Workers:  2,
		Seed:     1,
		Traffic:  "uniform",
	}
}

func runToReport(t *testing.T, o options) report {
	t.Helper()
	dir := t.TempDir()
	repPath := filepath.Join(dir, "report.json")
	out, err := os.Create(repPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := run(o, out); err != nil {
		t.Fatal(err)
	}
	if err := out.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(repPath)
	if err != nil {
		t.Fatal(err)
	}
	var rep report
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatal(err)
	}
	return rep
}

func TestRunReportAndMetrics(t *testing.T) {
	dir := t.TempDir()
	repPath := filepath.Join(dir, "report.json")
	out, err := os.Create(repPath)
	if err != nil {
		t.Fatal(err)
	}
	o := baseOpts()
	o.Metrics = filepath.Join(dir, "metrics.json")
	if err := run(o, out); err != nil {
		t.Fatal(err)
	}
	if err := out.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(repPath)
	if err != nil {
		t.Fatal(err)
	}
	var rep report
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Sessions != 40 || rep.Ticks != 5 || rep.Observations != 200 {
		t.Fatalf("bad report %+v", rep)
	}
	if rep.Fingerprint == "" || rep.ObsPerSec <= 0 {
		t.Fatalf("report missing derived fields: %+v", rep)
	}
	met, err := os.ReadFile(o.Metrics)
	if err != nil {
		t.Fatal(err)
	}
	var snap map[string]any
	if err := json.Unmarshal(met, &snap); err != nil {
		t.Fatal(err)
	}
	if len(met) == 0 {
		t.Fatal("empty metrics dump")
	}
}

// TestChurnFingerprintMatchesBaseline is the command-level determinism
// check: a churny, snapshotting run reports the same fingerprint as the
// plain run.
func TestChurnFingerprintMatchesBaseline(t *testing.T) {
	base := runToReport(t, baseOpts())
	churny := baseOpts()
	churny.ChurnRate = 1.5
	churny.SnapshotEvery = 2
	rep := runToReport(t, churny)
	if rep.Fingerprint != base.Fingerprint {
		t.Fatalf("churn run fingerprint %s, baseline %s", rep.Fingerprint, base.Fingerprint)
	}
	if rep.Disconnects == 0 || rep.Reconnects != rep.Disconnects {
		t.Fatalf("churn accounting off: %d disconnects, %d reconnects", rep.Disconnects, rep.Reconnects)
	}
	if rep.SnapshotBytes == 0 {
		t.Fatalf("snapshot round trips reported zero bytes")
	}
}

// TestTrafficAndDeviceClassFlags checks the scenario knobs change the run
// (different traffic → different fingerprint) without breaking it.
func TestTrafficAndDeviceClassFlags(t *testing.T) {
	// Launch-gap draws only diverge once launches fire, so give the run
	// enough rounds for every session's schedule to trigger repeatedly.
	long := baseOpts()
	long.Duration = 2 * time.Minute
	base := runToReport(t, long)
	for _, traffic := range []string{"bursty", "diurnal", "adversarial"} {
		o := long
		o.Traffic = traffic
		rep := runToReport(t, o)
		if rep.Traffic != traffic {
			t.Errorf("traffic %q reported as %q", traffic, rep.Traffic)
		}
		if rep.Fingerprint == base.Fingerprint {
			t.Errorf("traffic %q produced the uniform fingerprint", traffic)
		}
	}
	o := long
	o.DeviceClasses = true
	rep := runToReport(t, o)
	if rep.Fingerprint == base.Fingerprint {
		t.Errorf("heterogeneous device classes produced the homogeneous fingerprint")
	}
}

func TestRunRejectsBadOptions(t *testing.T) {
	cases := map[string]func(o *options){
		"zero duration": func(o *options) { o.Duration = 0 },
		"zero tick":     func(o *options) { o.Tick = 0 },
		"bad traffic":   func(o *options) { o.Traffic = "nope" },
		"neg churn":     func(o *options) { o.ChurnRate = -1 },
		"neg snapshot":  func(o *options) { o.SnapshotEvery = -2 },
	}
	for name, corrupt := range cases {
		o := baseOpts()
		corrupt(&o)
		if err := run(o, os.Stdout); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}
