// Command fleetsim runs the deterministic multi-device fleet simulation:
// thousands of concurrent sessions, each a full affect-control stack
// (hysteresis manager, decoder-mode policy, emotional background manager),
// with per-shard coalesced int8 classification.
//
// Usage:
//
//	fleetsim [-sessions N] [-shards N] [-duration D] [-tick D] [-workers N]
//	         [-seed N] [-metrics path]
//	         [-traffic uniform|bursty|diurnal|adversarial]
//	         [-churn-rate R] [-snapshot-every N] [-device-classes]
//
// The run advances duration/tick observation rounds of virtual time and
// prints an aggregate JSON report (throughput, switches, launches, kills,
// batching) to stdout. Results are bit-identical at any -workers count;
// -metrics additionally dumps the library observability snapshot ("-" =
// stdout).
//
// -churn-rate R disconnects on average R sessions per tick (reconnecting
// parked ones at the same rate) and -snapshot-every N round-trips the
// whole fleet through its gob snapshot every N ticks; every disconnected
// session reconnects before the final stats, so the reported fingerprint
// is identical to the churn-free run — the session-lifecycle determinism
// contract, exercised from the command line.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"time"

	"affectedge"
	"affectedge/internal/android"
	"affectedge/internal/fleet"
	"affectedge/internal/parallel"
)

// options carries the flag set into run.
type options struct {
	Sessions      int
	Shards        int
	Duration      time.Duration
	Tick          time.Duration
	Workers       int
	Seed          int64
	Metrics       string
	Traffic       string
	ChurnRate     float64
	SnapshotEvery int
	DeviceClasses bool
}

// report is the machine-readable run summary.
type report struct {
	fleet.Stats
	Workers       int     `json:"workers"`
	Seed          int64   `json:"seed"`
	Traffic       string  `json:"traffic"`
	ChurnRate     float64 `json:"churn_rate"`
	Disconnects   int64   `json:"disconnects"`
	Reconnects    int64   `json:"reconnects"`
	SnapshotEvery int     `json:"snapshot_every"`
	SnapshotBytes int64   `json:"snapshot_bytes"`
	ObsPerSec     float64 `json:"observations_per_sec"`
	Fingerprint   string  `json:"fingerprint"`
}

func main() {
	var o options
	flag.IntVar(&o.Sessions, "sessions", 2000, "simulated device sessions")
	flag.IntVar(&o.Shards, "shards", 8, "lock stripes / batching domains")
	flag.DurationVar(&o.Duration, "duration", 10*time.Second, "virtual time to simulate")
	flag.DurationVar(&o.Tick, "tick", time.Second, "virtual time per observation round")
	flag.IntVar(&o.Workers, "workers", 0, "parallel workers (0 = all cores); results are identical at any value")
	flag.Int64Var(&o.Seed, "seed", 1, "fleet seed")
	flag.StringVar(&o.Metrics, "metrics", "", `write a JSON metrics dump here after the run ("-" = stdout)`)
	flag.StringVar(&o.Traffic, "traffic", "uniform", "traffic model: uniform|bursty|diurnal|adversarial")
	flag.Float64Var(&o.ChurnRate, "churn-rate", 0, "mean sessions disconnected (and parked ones reconnected) per tick; all reconnect before the final stats")
	flag.IntVar(&o.SnapshotEvery, "snapshot-every", 0, "round-trip the fleet through its gob snapshot every N ticks (0 = never)")
	flag.BoolVar(&o.DeviceClasses, "device-classes", false, "heterogeneous shards: cycle budget/mid/flagship hardware classes across shards")
	flag.Parse()

	if err := run(o, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "fleetsim:", err)
		os.Exit(1)
	}
}

func run(o options, out *os.File) error {
	if o.Tick <= 0 {
		return fmt.Errorf("tick %v, want > 0", o.Tick)
	}
	ticks := int(o.Duration / o.Tick)
	if ticks <= 0 {
		return fmt.Errorf("duration %v shorter than one %v tick", o.Duration, o.Tick)
	}
	if o.ChurnRate < 0 {
		return fmt.Errorf("churn rate %g, want >= 0", o.ChurnRate)
	}
	if o.SnapshotEvery < 0 {
		return fmt.Errorf("snapshot every %d, want >= 0", o.SnapshotEvery)
	}
	traffic, err := fleet.TrafficByName(o.Traffic)
	if err != nil {
		return err
	}
	if o.Workers > 0 {
		defer parallel.SetWorkers(parallel.SetWorkers(o.Workers))
	}
	var reg *affectedge.MetricsRegistry
	if o.Metrics != "" {
		reg = affectedge.NewMetricsRegistry()
		affectedge.WireMetrics(reg)
		defer affectedge.WireMetrics(nil)
	}
	cfg := fleet.Config{
		Sessions:  o.Sessions,
		Shards:    o.Shards,
		Ticks:     ticks,
		TickEvery: o.Tick,
		Seed:      o.Seed,
		Traffic:   traffic,
	}
	if o.DeviceClasses {
		for _, dc := range android.DeviceClasses() {
			cfg.Profiles = append(cfg.Profiles, fleet.ShardProfile{Device: dc})
		}
	}

	start := time.Now()
	var st *fleet.Stats
	rep := report{
		Workers:       o.Workers,
		Seed:          o.Seed,
		Traffic:       traffic.Name(),
		ChurnRate:     o.ChurnRate,
		SnapshotEvery: o.SnapshotEvery,
	}
	if o.ChurnRate > 0 || o.SnapshotEvery > 0 {
		st, err = runChurn(cfg, o, ticks, &rep)
	} else {
		f, ferr := fleet.New(cfg)
		if ferr != nil {
			return ferr
		}
		st, err = f.RunTicks(ticks)
	}
	if err != nil {
		return err
	}
	st.WallTime = time.Since(start)

	rep.Stats = *st
	rep.ObsPerSec = float64(st.Observations) / st.WallTime.Seconds()
	rep.Fingerprint = st.Fingerprint()
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		return err
	}
	if o.Metrics != "" {
		return affectedge.DumpMetrics(reg, o.Metrics)
	}
	return nil
}

// runChurn drives the fleet tick by tick under a seeded churn schedule:
// each round it disconnects (or reconnects) sessions at the configured
// rate, periodically round-trips the whole fleet through its snapshot, and
// reconnects everything at the end — so the final fingerprint matches the
// churn-free run exactly.
func runChurn(cfg fleet.Config, o options, ticks int, rep *report) (*fleet.Stats, error) {
	f, err := fleet.New(cfg)
	if err != nil {
		return nil, err
	}
	churn := rand.New(rand.NewSource(o.Seed + 0x5eed))
	parked := map[int]bool{}
	var buf bytes.Buffer
	for t := 0; t < ticks; t++ {
		if _, err := f.RunTicks(1); err != nil {
			return nil, err
		}
		ops := int(o.ChurnRate)
		if churn.Float64() < o.ChurnRate-float64(ops) {
			ops++
		}
		for i := 0; i < ops; i++ {
			id := churn.Intn(o.Sessions)
			if parked[id] {
				if err := f.Reconnect(id); err != nil {
					return nil, err
				}
				delete(parked, id)
				rep.Reconnects++
			} else {
				if err := f.Disconnect(id); err != nil {
					return nil, err
				}
				parked[id] = true
				rep.Disconnects++
			}
		}
		if o.SnapshotEvery > 0 && (t+1)%o.SnapshotEvery == 0 {
			buf.Reset()
			if err := f.Snapshot(&buf); err != nil {
				return nil, err
			}
			rep.SnapshotBytes = int64(buf.Len())
			if err := f.Restore(&buf); err != nil {
				return nil, err
			}
		}
	}
	for id := range parked {
		if err := f.Reconnect(id); err != nil {
			return nil, err
		}
		rep.Reconnects++
	}
	return f.Stats(), nil
}
