// Command benchjson parses `go test -bench` text output into a JSON
// snapshot, so the performance trajectory of the repository stays
// machine-readable across PRs (see `make bench-json`, which writes
// BENCH_<n>.json files).
//
// Usage:
//
//	go test -bench=. -benchmem ./... | benchjson [-in file] [-out file]
//	benchjson -compare OLD.json NEW.json
//
// Every benchmark result line is captured: iterations, ns/op, B/op,
// allocs/op, and any custom b.ReportMetric units (the repo reports
// paper-figure numbers that way). A benchmark that ran several times
// (go test -count N) is stored once, with the median of each metric, its
// min and max over the runs, and the run count; the snapshot records the
// GOMAXPROCS the benchmarks ran at.
//
// The -compare mode diffs two snapshots (see `make bench-compare`, which
// feeds it the latest two BENCH_<n>.json files) and prints per-benchmark
// ns/op medians with their min-max ranges, and allocs/op deltas. With
// -max-regress P it becomes a CI gate: any benchmark whose new ns/op
// median exceeds the old snapshot's ns/op max by more than P percent, or
// whose allocs/op rose at all (allocation counts are deterministic),
// fails the run with a nonzero exit (see `make bench-guard`). Measuring
// against the old max keeps a rise within the old run-to-run spread from
// tripping the gate; an old snapshot stored without ranges falls back to
// its median. -match RE restricts the gate to benchmark names matching
// RE, so noisy end-to-end numbers don't veto a hot-path guard.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"runtime"
	"sort"
	"strings"
	"time"
)

// Benchmark is one parsed result line.
type Benchmark struct {
	// Name is the benchmark name with the -N GOMAXPROCS suffix trimmed.
	Name string `json:"name"`
	// Procs is the GOMAXPROCS suffix (1 when absent).
	Procs int `json:"procs"`
	// Iterations is b.N for the recorded run (the median over Runs).
	Iterations int64 `json:"iterations"`
	// Runs is how many result lines were merged (go test -count N);
	// absent in snapshots recorded one run per benchmark.
	Runs int `json:"runs,omitempty"`
	// Metrics maps unit -> value ("ns/op", "B/op", "allocs/op", and any
	// custom ReportMetric units), each the median over Runs.
	Metrics map[string]float64 `json:"metrics"`
	// Min and Max map each unit to its smallest and largest value over
	// Runs; absent for a single run.
	Min map[string]float64 `json:"min,omitempty"`
	Max map[string]float64 `json:"max,omitempty"`
}

// Snapshot is the file-level JSON document.
type Snapshot struct {
	GeneratedAt string `json:"generated_at"`
	GoVersion   string `json:"go_version"`
	GOOS        string `json:"goos"`
	GOARCH      string `json:"goarch"`
	NumCPU      int    `json:"num_cpu"`
	// GOMAXPROCS is the -N suffix every benchmark line carries (go
	// test's -cpu setting, GOMAXPROCS by default); 0 when the lines
	// disagree.
	GOMAXPROCS int         `json:"gomaxprocs"`
	Benchmarks []Benchmark `json:"benchmarks"`
}

func main() {
	inPath := flag.String("in", "", "bench output file (default stdin)")
	outPath := flag.String("out", "", "JSON destination (default stdout)")
	compare := flag.Bool("compare", false, "diff two snapshot files: benchjson -compare OLD.json NEW.json")
	maxRegress := flag.Float64("max-regress", 0, "with -compare: fail (exit 1) when any gated benchmark's ns/op median exceeds the old max (median without ranges) by more than this percentage or its allocs/op grows at all")
	match := flag.String("match", "", "with -max-regress: regexp restricting the regression gate to matching benchmark names (default: all)")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare needs exactly two snapshot files, got %d", flag.NArg()))
		}
		oldSnap, err := loadSnapshot(flag.Arg(0))
		if err != nil {
			fatal(err)
		}
		newSnap, err := loadSnapshot(flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		fmt.Printf("comparing %s -> %s\n", flag.Arg(0), flag.Arg(1))
		os.Stdout.WriteString(Compare(oldSnap, newSnap))
		if *maxRegress > 0 {
			var re *regexp.Regexp
			if *match != "" {
				re, err = regexp.Compile(*match)
				if err != nil {
					fatal(fmt.Errorf("-match: %w", err))
				}
			}
			bad := Regressions(oldSnap, newSnap, re, *maxRegress)
			if len(bad) > 0 {
				fmt.Fprintf(os.Stderr, "benchjson: %d regression(s) past %g%% over the old ns/op max or any allocs/op rise:\n", len(bad), *maxRegress)
				for _, line := range bad {
					fmt.Fprintln(os.Stderr, " ", line)
				}
				os.Exit(1)
			}
			fmt.Printf("regression gate: ok (max %g%%)\n", *maxRegress)
		}
		return
	}
	if *maxRegress > 0 || *match != "" {
		fatal(fmt.Errorf("-max-regress/-match only apply with -compare"))
	}

	in := io.Reader(os.Stdin)
	if *inPath != "" {
		f, err := os.Open(*inPath)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		in = f
	}
	snap, err := Parse(in)
	if err != nil {
		fatal(err)
	}
	if len(snap.Benchmarks) == 0 {
		fatal(fmt.Errorf("no benchmark lines found in input"))
	}
	data, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		fatal(err)
	}
	data = append(data, '\n')
	if *outPath == "" {
		os.Stdout.Write(data)
		return
	}
	if err := os.WriteFile(*outPath, data, 0o644); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchjson:", err)
	os.Exit(1)
}

// loadSnapshot reads a previously written snapshot JSON file.
func loadSnapshot(path string) (*Snapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var snap Snapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &snap, nil
}

// Compare renders a per-benchmark diff of two snapshots. Benchmarks are
// matched by name (first occurrence wins on duplicates); ones present in
// only one snapshot are listed as added or removed. Each side shows its
// ns/op median and, when it merged several runs, their min-max range, so
// a ratio can be read against the run-to-run spread. The ratio column is
// new/old median ns/op, so values below 1.00x are speedups.
func Compare(oldSnap, newSnap *Snapshot) string {
	oldBy := map[string]Benchmark{}
	for _, b := range oldSnap.Benchmarks {
		if _, ok := oldBy[b.Name]; !ok {
			oldBy[b.Name] = b
		}
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-52s %14s %23s %14s %23s %8s %11s\n",
		"benchmark", "old ns/op", "old range", "new ns/op", "new range", "ratio", "allocs/op")
	seen := map[string]bool{}
	for _, nb := range newSnap.Benchmarks {
		if seen[nb.Name] {
			continue
		}
		seen[nb.Name] = true
		ob, ok := oldBy[nb.Name]
		if !ok {
			fmt.Fprintf(&sb, "%-52s %14s %23s %14.0f %23s %8s %11s\n",
				nb.Name, "(added)", "", nb.Metrics["ns/op"], nsRange(nb), "", allocsDelta(nb.Metrics, nb.Metrics))
			continue
		}
		ratio := "n/a"
		if o := ob.Metrics["ns/op"]; o > 0 {
			ratio = fmt.Sprintf("%.2fx", nb.Metrics["ns/op"]/o)
		}
		fmt.Fprintf(&sb, "%-52s %14.0f %23s %14.0f %23s %8s %11s\n",
			nb.Name, ob.Metrics["ns/op"], nsRange(ob), nb.Metrics["ns/op"], nsRange(nb), ratio, allocsDelta(ob.Metrics, nb.Metrics))
	}
	for _, ob := range oldSnap.Benchmarks {
		if seen[ob.Name] {
			continue
		}
		seen[ob.Name] = true
		fmt.Fprintf(&sb, "%-52s %14.0f %23s %14s\n", ob.Name, ob.Metrics["ns/op"], nsRange(ob), "(removed)")
	}
	return sb.String()
}

// Regressions lists the benchmarks present in both snapshots (optionally
// restricted to names matching re) whose new ns/op median exceeds the
// old ns/op max by more than maxPct percent (the old median when the old
// snapshot stores no range), or whose allocs/op grew at all. Added and removed benchmarks
// never trip the gate — new code has no baseline, and deletions are
// judged in review, not by timing.
func Regressions(oldSnap, newSnap *Snapshot, re *regexp.Regexp, maxPct float64) []string {
	oldBy := map[string]Benchmark{}
	for _, b := range oldSnap.Benchmarks {
		if _, ok := oldBy[b.Name]; !ok {
			oldBy[b.Name] = b
		}
	}
	limit := 1 + maxPct/100
	var bad []string
	seen := map[string]bool{}
	for _, nb := range newSnap.Benchmarks {
		if seen[nb.Name] {
			continue
		}
		seen[nb.Name] = true
		if re != nil && !re.MatchString(nb.Name) {
			continue
		}
		ob, ok := oldBy[nb.Name]
		if !ok {
			continue
		}
		o, ref := ob.Metrics["ns/op"], "median"
		if hi, ok := ob.Max["ns/op"]; ok {
			o, ref = hi, "max"
		}
		if n := nb.Metrics["ns/op"]; o > 0 && n/o > limit {
			bad = append(bad, fmt.Sprintf("%s: %.0f -> %.0f ns/op (%.2fx old %s)", nb.Name, o, n, n/o, ref))
		}
		oa, ook := ob.Metrics["allocs/op"]
		na, nok := nb.Metrics["allocs/op"]
		if ook && nok && na > oa {
			bad = append(bad, fmt.Sprintf("%s: %.0f -> %.0f allocs/op", nb.Name, oa, na))
		}
	}
	return bad
}

// nsRange formats a benchmark's ns/op min-max over its runs, or "-" for
// a single run (or a snapshot recorded before ranges were stored).
func nsRange(b Benchmark) string {
	lo, lok := b.Min["ns/op"]
	hi, hok := b.Max["ns/op"]
	if !lok || !hok {
		return "-"
	}
	return fmt.Sprintf("%.0f-%.0f", lo, hi)
}

// allocsDelta formats the allocs/op transition, or blank when the metric is
// absent from both snapshots (benchmarks without -benchmem).
func allocsDelta(oldM, newM map[string]float64) string {
	ov, ook := oldM["allocs/op"]
	nv, nok := newM["allocs/op"]
	if !ook && !nok {
		return ""
	}
	if ov == nv {
		return fmt.Sprintf("%.0f", nv)
	}
	return fmt.Sprintf("%.0f->%.0f", ov, nv)
}

// Parse reads `go test -bench` output and collects every result line into
// a snapshot, merging repeated runs of one benchmark (go test -count N)
// into a single entry of per-metric medians.
func Parse(r io.Reader) (*Snapshot, error) {
	snap := &Snapshot{
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		GoVersion:   runtime.Version(),
		GOOS:        runtime.GOOS,
		GOARCH:      runtime.GOARCH,
		NumCPU:      runtime.NumCPU(),
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if b, ok := parseLine(sc.Text()); ok {
			snap.Benchmarks = append(snap.Benchmarks, b)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	snap.GOMAXPROCS = commonProcs(snap.Benchmarks)
	snap.Benchmarks = mergeRuns(snap.Benchmarks)
	return snap, nil
}

// commonProcs returns the procs value every line shares, or 0 when they
// disagree (or there are none).
func commonProcs(lines []Benchmark) int {
	procs := 0
	for i, b := range lines {
		if i > 0 && b.Procs != procs {
			return 0
		}
		procs = b.Procs
	}
	return procs
}

// mergeRuns folds result lines with the same name and procs into one
// Benchmark per name, in first-seen order, holding the median iteration
// count and the median, min and max of every metric over the lines that
// report it.
func mergeRuns(lines []Benchmark) []Benchmark {
	type key struct {
		name  string
		procs int
	}
	var order []key
	runs := map[key][]Benchmark{}
	for _, b := range lines {
		k := key{b.Name, b.Procs}
		if _, ok := runs[k]; !ok {
			order = append(order, k)
		}
		runs[k] = append(runs[k], b)
	}
	out := make([]Benchmark, 0, len(order))
	for _, k := range order {
		rs := runs[k]
		if len(rs) == 1 {
			out = append(out, rs[0])
			continue
		}
		m := Benchmark{Name: k.name, Procs: k.procs, Runs: len(rs), Metrics: map[string]float64{},
			Min: map[string]float64{}, Max: map[string]float64{}}
		iters := make([]float64, len(rs))
		vals := map[string][]float64{}
		for i, r := range rs {
			iters[i] = float64(r.Iterations)
			for unit, v := range r.Metrics {
				vals[unit] = append(vals[unit], v)
			}
		}
		m.Iterations = int64(median(iters))
		for unit, vs := range vals {
			m.Metrics[unit] = median(vs)
			m.Min[unit], m.Max[unit] = vs[0], vs[len(vs)-1] // median sorted vs
		}
		out = append(out, m)
	}
	return out
}

// median returns the middle value of xs (the mean of the two middle
// values for an even count). It reorders xs.
func median(xs []float64) float64 {
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// parseLine parses one "BenchmarkX-N  iters  v unit  v unit ..." line.
// Non-benchmark lines (headers, PASS/ok, test logs) return ok=false.
func parseLine(line string) (Benchmark, bool) {
	fields := splitFields(line)
	if len(fields) < 2 || len(fields[0]) <= len("Benchmark") ||
		fields[0][:len("Benchmark")] != "Benchmark" {
		return Benchmark{}, false
	}
	var iters int64
	if _, err := fmt.Sscanf(fields[1], "%d", &iters); err != nil || iters <= 0 {
		return Benchmark{}, false
	}
	name, procs := splitProcs(fields[0])
	b := Benchmark{Name: name, Procs: procs, Iterations: iters, Metrics: map[string]float64{}}
	// Remaining fields come in "value unit" pairs.
	for i := 2; i+1 < len(fields); i += 2 {
		var v float64
		if _, err := fmt.Sscanf(fields[i], "%g", &v); err != nil {
			return Benchmark{}, false
		}
		b.Metrics[fields[i+1]] = v
	}
	return b, true
}

// splitProcs separates the trailing -N GOMAXPROCS suffix from a benchmark
// name; names without one report procs=1.
func splitProcs(name string) (string, int) {
	for i := len(name) - 1; i > 0; i-- {
		c := name[i]
		if c >= '0' && c <= '9' {
			continue
		}
		if c == '-' && i < len(name)-1 {
			var n int
			fmt.Sscanf(name[i+1:], "%d", &n)
			if n > 0 {
				return name[:i], n
			}
		}
		break
	}
	return name, 1
}

// splitFields splits on runs of spaces/tabs.
func splitFields(s string) []string {
	var out []string
	start := -1
	for i := 0; i <= len(s); i++ {
		if i < len(s) && s[i] != ' ' && s[i] != '\t' {
			if start < 0 {
				start = i
			}
			continue
		}
		if start >= 0 {
			out = append(out, s[start:i])
			start = -1
		}
	}
	return out
}
