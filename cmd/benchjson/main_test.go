package main

import (
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: affectedge/internal/dsp
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkFFT           	  299716	      4000 ns/op	       0 B/op	       0 allocs/op
BenchmarkMFCC-8        	     674	   1820784 ns/op	  889272 B/op	     831 allocs/op
BenchmarkDatasetParallel/serial-4 	      10	 104000000 ns/op	 5160000 B/op	   13800 allocs/op
BenchmarkFig3bClassifierAccuracy 	       1	32000000000 ns/op	  62.8 NN_acc_% 	  74.2 CNN_acc_%
PASS
ok  	affectedge/internal/dsp	6.502s
`

func TestParse(t *testing.T) {
	snap, err := Parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Benchmarks) != 4 {
		t.Fatalf("parsed %d benchmarks, want 4", len(snap.Benchmarks))
	}
	fft := snap.Benchmarks[0]
	if fft.Name != "BenchmarkFFT" || fft.Procs != 1 || fft.Iterations != 299716 {
		t.Errorf("FFT line parsed wrong: %+v", fft)
	}
	if fft.Metrics["ns/op"] != 4000 || fft.Metrics["allocs/op"] != 0 {
		t.Errorf("FFT metrics wrong: %v", fft.Metrics)
	}
	mfcc := snap.Benchmarks[1]
	if mfcc.Name != "BenchmarkMFCC" || mfcc.Procs != 8 {
		t.Errorf("procs suffix not split: %+v", mfcc)
	}
	sub := snap.Benchmarks[2]
	if sub.Name != "BenchmarkDatasetParallel/serial" || sub.Procs != 4 {
		t.Errorf("sub-benchmark name parsed wrong: %+v", sub)
	}
	fig := snap.Benchmarks[3]
	if fig.Metrics["NN_acc_%"] != 62.8 || fig.Metrics["CNN_acc_%"] != 74.2 {
		t.Errorf("custom metrics lost: %v", fig.Metrics)
	}
	if fig.Metrics["ns/op"] != 32000000000 {
		t.Errorf("ns/op wrong: %v", fig.Metrics)
	}
}

func TestParseIgnoresNoise(t *testing.T) {
	snap, err := Parse(strings.NewReader("PASS\nok \tx\t1s\nBenchmark\nBenchmarkBad abc\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Benchmarks) != 0 {
		t.Errorf("noise lines parsed as benchmarks: %+v", snap.Benchmarks)
	}
}

func TestCompare(t *testing.T) {
	oldSnap := &Snapshot{Benchmarks: []Benchmark{
		{Name: "BenchmarkA", Metrics: map[string]float64{"ns/op": 1000, "allocs/op": 12}},
		{Name: "BenchmarkGone", Metrics: map[string]float64{"ns/op": 50}},
	}}
	newSnap := &Snapshot{Benchmarks: []Benchmark{
		{Name: "BenchmarkA", Metrics: map[string]float64{"ns/op": 250, "allocs/op": 0}},
		{Name: "BenchmarkNew", Metrics: map[string]float64{"ns/op": 90, "allocs/op": 3}},
	}}
	out := Compare(oldSnap, newSnap)
	for _, want := range []string{
		"BenchmarkA", "0.25x", "12->0",
		"BenchmarkNew", "(added)",
		"BenchmarkGone", "(removed)",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("compare output missing %q:\n%s", want, out)
		}
	}
}

func TestCompareNoNsOp(t *testing.T) {
	oldSnap := &Snapshot{Benchmarks: []Benchmark{
		{Name: "BenchmarkZ", Metrics: map[string]float64{"ns/op": 0}},
	}}
	newSnap := &Snapshot{Benchmarks: []Benchmark{
		{Name: "BenchmarkZ", Metrics: map[string]float64{"ns/op": 10}},
	}}
	if out := Compare(oldSnap, newSnap); !strings.Contains(out, "n/a") {
		t.Errorf("zero old ns/op should render n/a ratio:\n%s", out)
	}
}

func TestSplitProcs(t *testing.T) {
	cases := []struct {
		in    string
		name  string
		procs int
	}{
		{"BenchmarkX-8", "BenchmarkX", 8},
		{"BenchmarkX", "BenchmarkX", 1},
		{"BenchmarkX-8/sub-2", "BenchmarkX-8/sub", 2},
		{"BenchmarkFFT1024", "BenchmarkFFT1024", 1},
	}
	for _, c := range cases {
		name, procs := splitProcs(c.in)
		if name != c.name || procs != c.procs {
			t.Errorf("splitProcs(%q) = %q,%d want %q,%d", c.in, name, procs, c.name, c.procs)
		}
	}
}

func TestParseMedian(t *testing.T) {
	in := `BenchmarkX-2   100   300 ns/op   8 B/op   1 allocs/op   7 ns/row
BenchmarkY-2   10   50 ns/op
BenchmarkX-2   300   100 ns/op   8 B/op   1 allocs/op   9 ns/row
BenchmarkX-2   200   200 ns/op   16 B/op   2 allocs/op   8 ns/row
`
	snap, err := Parse(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Benchmarks) != 2 {
		t.Fatalf("got %d benchmarks, want X and Y merged to 2: %+v", len(snap.Benchmarks), snap.Benchmarks)
	}
	x := snap.Benchmarks[0]
	if x.Name != "BenchmarkX" || x.Runs != 3 || x.Iterations != 200 {
		t.Errorf("merged X: %+v", x)
	}
	for unit, want := range map[string]float64{"ns/op": 200, "B/op": 8, "allocs/op": 1, "ns/row": 8} {
		if x.Metrics[unit] != want {
			t.Errorf("X median %s = %v, want %v", unit, x.Metrics[unit], want)
		}
	}
	if y := snap.Benchmarks[1]; y.Runs != 0 || y.Metrics["ns/op"] != 50 {
		t.Errorf("single-run Y: %+v", y)
	}
}

func TestParseSpread(t *testing.T) {
	in := `BenchmarkX-2   100   300 ns/op   7 ns/row
BenchmarkX-2   300   100 ns/op   9 ns/row
BenchmarkX-2   200   250 ns/op   8 ns/row
BenchmarkY-2   10   50 ns/op
`
	snap, err := Parse(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if snap.GOMAXPROCS != 2 {
		t.Errorf("gomaxprocs %d, want 2", snap.GOMAXPROCS)
	}
	x := snap.Benchmarks[0]
	for unit, want := range map[string][3]float64{"ns/op": {100, 250, 300}, "ns/row": {7, 8, 9}} {
		if got := [3]float64{x.Min[unit], x.Metrics[unit], x.Max[unit]}; got != want {
			t.Errorf("X %s min/median/max = %v, want %v", unit, got, want)
		}
	}
	if y := snap.Benchmarks[1]; y.Min != nil || y.Max != nil {
		t.Errorf("single-run Y carries a range: %+v", y)
	}
	mixed, err := Parse(strings.NewReader("BenchmarkX-2 1 5 ns/op\nBenchmarkX-4 1 5 ns/op\n"))
	if err != nil {
		t.Fatal(err)
	}
	if mixed.GOMAXPROCS != 0 {
		t.Errorf("mixed -cpu lines: gomaxprocs %d, want 0", mixed.GOMAXPROCS)
	}
}

func TestCompareRanges(t *testing.T) {
	oldSnap := &Snapshot{Benchmarks: []Benchmark{{Name: "BenchmarkA", Runs: 3,
		Metrics: map[string]float64{"ns/op": 190},
		Min:     map[string]float64{"ns/op": 182}, Max: map[string]float64{"ns/op": 201}}}}
	newSnap := &Snapshot{Benchmarks: []Benchmark{
		{Name: "BenchmarkA", Runs: 3, Metrics: map[string]float64{"ns/op": 130},
			Min: map[string]float64{"ns/op": 123}, Max: map[string]float64{"ns/op": 144}},
		{Name: "BenchmarkOne", Metrics: map[string]float64{"ns/op": 9}},
	}}
	out := Compare(oldSnap, newSnap)
	for _, want := range []string{"182-201", "123-144", "0.68x"} {
		if !strings.Contains(out, want) {
			t.Errorf("compare output missing %q:\n%s", want, out)
		}
	}
	// A single-run benchmark has no range: "-".
	for _, line := range strings.Split(out, "\n") {
		if f := strings.Fields(line); len(f) > 0 && f[0] == "BenchmarkOne" {
			if strings.Join(f, " ") != "BenchmarkOne (added) 9 -" {
				t.Errorf("single-run line %q, want range \"-\"", line)
			}
		}
	}
}

func TestRegressionsAllocs(t *testing.T) {
	oldSnap := &Snapshot{Benchmarks: []Benchmark{
		{Name: "BenchmarkA", Metrics: map[string]float64{"ns/op": 100, "allocs/op": 0}},
		{Name: "BenchmarkB", Metrics: map[string]float64{"ns/op": 100, "allocs/op": 4}},
		{Name: "BenchmarkC", Metrics: map[string]float64{"ns/op": 100}},
	}}
	newSnap := &Snapshot{Benchmarks: []Benchmark{
		{Name: "BenchmarkA", Metrics: map[string]float64{"ns/op": 90, "allocs/op": 1}},
		{Name: "BenchmarkB", Metrics: map[string]float64{"ns/op": 110, "allocs/op": 3}},
		{Name: "BenchmarkC", Metrics: map[string]float64{"ns/op": 200}},
	}}
	bad := Regressions(oldSnap, newSnap, nil, 25)
	if len(bad) != 2 || !strings.Contains(bad[0], "BenchmarkA: 0 -> 1 allocs/op") || !strings.Contains(bad[1], "BenchmarkC") {
		t.Fatalf("regressions %q, want A's allocs rise and C's ns/op", bad)
	}
}
