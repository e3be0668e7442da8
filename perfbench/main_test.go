package main

import (
	"encoding/json"
	"os"
	"testing"
)

// benchDef is the part of BENCHMARK.json the self-tests read.
type benchDef struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

const benchPath = "../BENCHMARK.json"

func loadBench(t *testing.T) benchDef {
	t.Helper()
	raw, err := os.ReadFile(benchPath)
	if err != nil {
		t.Fatal(err)
	}
	var b benchDef
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

func tinyOptions(t *testing.T, workload string, trace int) options {
	return options{workload: workload, seed: 3, seconds: 1, trace: trace, tiny: true,
		benchFile: benchPath, traceDir: t.TempDir()}
}

// A tiny run of every workload, untraced and traced, passes its checks and
// prints exactly the metrics BENCHMARK.json names, with their units.
func TestTinyRunPrintsEveryMetric(t *testing.T) {
	b := loadBench(t)
	for name := range workloads {
		for trace, want := range [][]struct{ Name, Unit string }{b.EndToEnd, b.PerLayer} {
			res, det, err := run(tinyOptions(t, name, trace))
			if err != nil {
				t.Fatalf("%s trace %d: %v", name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace %d: correct %v attempted %d failed %d, checks %+v",
					name, trace, res.Correct, res.Attempted, res.Failed, det.Checks)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace %d: %d metrics, want %d", name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace %d: metric %s = %+v (present %v), want unit %s", name, trace, m.Name, got, ok, m.Unit)
				}
			}
		}
	}
}

// BENCHMARK.json records sim_video's default-seed checkpoint.
func TestRecordedReference(t *testing.T) {
	ref, err := recorded(benchPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(ref.fingerprint) != 64 || ref.concealed < 0 {
		t.Fatalf("recorded reference %+v", ref)
	}
}

// A wrong reference fingerprint fails sim_video's check, and so the run.
func TestWrongFingerprintFailsRun(t *testing.T) {
	o := tinyOptions(t, "sim_video", 0)
	o.expectFP = "0000000000000000000000000000000000000000000000000000000000000000"
	res, _, err := run(o)
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed == 0 {
		t.Fatalf("wrong fingerprint: correct %v failed %d, want a failed run", res.Correct, res.Failed)
	}
}
