// Command fleetload drives the TCP ingest server with N concurrent
// sessions of deterministic seeded traffic and reports throughput and
// ingest-latency percentiles. By default every session sends one
// observation per OBSERVE_BATCH frame with one frame in flight.
//
// Usage:
//
//	fleetload [-addr host:port] [-sessions N] [-obs N] [-shards N]
//	          [-seed N] [-batch N] [-window N]
//	          [-max-batch N] [-queue-depth N] [-timeout D] [-dial-burst N]
//	          [-verify] [-control addr] [-metrics path]
//
// -batch N pipelines the clients: observations accumulate into
// OBSERVE_BATCH frames of N, up to -window frames (default 4) ride the
// wire unacknowledged, and the coalesced ACK_BATCH bitmaps drive per-item
// retry. The latency percentiles then report the *amortized*
// per-observation cost (round trip / batch size), and the report adds
// "amortized_us_per_obs" (histogram mean) plus the batching knobs.
//
// With no -addr, fleetload builds an in-process fleet, serves it on a
// loopback socket, and aims the load at itself — the self-contained
// stress mode the acceptance run uses (10k+ concurrent sessions, every
// observation retried through backpressure until ACKed, so a clean run
// reports zero unexpected drops). -addr aims the same traffic at an
// external server instead; the report then carries client-side numbers
// only.
//
// -verify runs the determinism proof: the fleet is pinned to MaxBatch 1
// and a no-drop queue depth, the identical traffic is also fed to a twin
// fleet in-process (no sockets), and the two Stats.Fingerprint values
// must match — the wire adds no semantics. The report carries both
// fingerprints and "verify_match".
//
// -control serves the HTTP control/metrics plane on the given address
// for the duration of the run; -metrics dumps the full library+server
// observability snapshot after it ("-" = stdout).
//
// Two more modes split the endpoints across processes — at 10k+
// concurrent connections a single process needs both socket ends (20k+
// descriptors), which can exceed RLIMIT_NOFILE:
//
//	-listen addr   serve an ingest fleet on addr and block; SIGINT/SIGTERM
//	               drains (server close, fleet close) and prints a final
//	               JSON report with counters and the fleet fingerprint.
//	               -read-timeout widens the per-connection idle deadline
//	               for slow multi-process ramps. With -verify the fleet is
//	               pinned to the determinism config (MaxBatch 1, no-drop
//	               queues sized from -sessions/-obs/-shards).
//	-direct        no sockets: feed the identical traffic straight into an
//	               in-process fleet and print its fingerprint — the twin
//	               to compare a -listen run's final fingerprint against.
//
// The report is one JSON object on stdout: sent/acked/nacked, obs/sec,
// and p50/p95/p99 round-trip latency in microseconds, estimated from the
// loadgen's exponential-bucket obs histogram.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"affectedge"
	"affectedge/internal/fleet"
	"affectedge/internal/obs"
	"affectedge/internal/server"
)

type options struct {
	Addr        string
	Listen      string
	Direct      bool
	Sessions    int
	Obs         int
	Shards      int
	Seed        int64
	Batch       int
	Window      int
	MaxBatch    int
	QueueDepth  int
	Timeout     time.Duration
	ReadTimeout time.Duration
	DialBurst   int
	Verify      bool
	Control     string
	Metrics     string
}

// report is the machine-readable run summary.
type report struct {
	Sessions   int   `json:"sessions"`
	ObsPerSess int   `json:"obs_per_session"`
	Seed       int64 `json:"seed"`

	Sent    int64         `json:"sent"`
	Acked   int64         `json:"acked"`
	Nacked  int64         `json:"nacked"`
	Lost    int64         `json:"lost"` // acked short of sessions×obs — 0 on a clean run
	Elapsed time.Duration `json:"elapsed_ns"`
	ObsSec  float64       `json:"observations_per_sec"`

	P50us float64 `json:"p50_us"`
	P95us float64 `json:"p95_us"`
	P99us float64 `json:"p99_us"`

	// -batch mode only: the pipelining knobs and the histogram-mean
	// amortized per-observation latency (percentiles above are already
	// amortized in this mode).
	Batch   int     `json:"batch,omitempty"`
	Window  int     `json:"window,omitempty"`
	AmortUs float64 `json:"amortized_us_per_obs,omitempty"`

	// In-process mode only.
	Counters    *server.Counters `json:"server_counters,omitempty"`
	Fingerprint string           `json:"fingerprint,omitempty"`

	// -verify only.
	DirectFingerprint string `json:"direct_fingerprint,omitempty"`
	VerifyMatch       *bool  `json:"verify_match,omitempty"`
}

func main() {
	var o options
	flag.StringVar(&o.Addr, "addr", "", "external server address (empty: serve an in-process fleet on loopback)")
	flag.StringVar(&o.Listen, "listen", "", "serve an ingest fleet on this address and block until SIGINT (no load)")
	flag.BoolVar(&o.Direct, "direct", false, "feed the traffic straight into an in-process fleet (no sockets) and print its fingerprint")
	flag.IntVar(&o.Sessions, "sessions", 1000, "concurrent sessions (ids 0..N-1)")
	flag.IntVar(&o.Obs, "obs", 20, "observations per session")
	flag.IntVar(&o.Shards, "shards", 8, "fleet shards (in-process mode)")
	flag.Int64Var(&o.Seed, "seed", 1, "fleet and traffic seed")
	flag.IntVar(&o.Batch, "batch", 0, "observations per OBSERVE_BATCH frame (0 = one, with one frame in flight)")
	flag.IntVar(&o.Window, "window", 0, "in-flight OBSERVE_BATCH frames per session (0 = default 4, or 1 without -batch)")
	flag.IntVar(&o.MaxBatch, "max-batch", 0, "fleet MaxBatch (0 = default; -verify forces 1)")
	flag.IntVar(&o.QueueDepth, "queue-depth", 0, "shard queue depth (0 = default; -verify forces no-drop sizing)")
	flag.DurationVar(&o.Timeout, "timeout", 30*time.Second, "per round-trip deadline")
	flag.DurationVar(&o.ReadTimeout, "read-timeout", 0, "server per-connection idle deadline (-listen mode; 0 = library default)")
	flag.IntVar(&o.DialBurst, "dial-burst", 512, "concurrent dials while ramping")
	flag.BoolVar(&o.Verify, "verify", false, "also run the in-process twin and compare fleet fingerprints")
	flag.StringVar(&o.Control, "control", "", "serve the HTTP control/metrics plane here during the run (in-process mode)")
	flag.StringVar(&o.Metrics, "metrics", "", `write a JSON metrics dump here after the run ("-" = stdout)`)
	flag.Parse()

	if err := run(o, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "fleetload:", err)
		os.Exit(1)
	}
}

// pinnedConfig sizes the determinism-pinned fleet for -verify runs: one
// row per inference round and queues deep enough to hold a shard's whole
// traffic share, so Drops — a fingerprint field — cannot occur.
func pinnedConfig(o options) fleet.Config {
	depth := ((o.Sessions+o.Shards-1)/o.Shards)*o.Obs + 1
	return server.VerifyConfig(o.Sessions, o.Shards, depth, o.Seed)
}

func fleetConfig(o options) fleet.Config {
	if o.Verify {
		return pinnedConfig(o)
	}
	return fleet.Config{
		Sessions:   o.Sessions,
		Shards:     o.Shards,
		Seed:       o.Seed,
		MaxBatch:   o.MaxBatch,
		QueueDepth: o.QueueDepth,
	}
}

func run(o options, out *os.File) error {
	if o.Sessions <= 0 || o.Obs <= 0 {
		return fmt.Errorf("sessions %d / obs %d, want > 0", o.Sessions, o.Obs)
	}
	if o.Addr != "" && o.Verify {
		return errors.New("-verify needs the in-process fleet (drop -addr)")
	}
	if o.Listen != "" {
		return serve(o, out)
	}
	if o.Direct {
		return direct(o, out)
	}

	reg := affectedge.NewMetricsRegistry()
	if o.Metrics != "" {
		affectedge.WireMetrics(reg)
		defer affectedge.WireMetrics(nil)
	}
	server.WireMetrics(reg.Scope("server"))
	lat := reg.Scope("loadgen").Histogram("rtt_us", obs.ExponentialBuckets(1, 2, 24))

	load := server.LoadConfig{
		Addr:      o.Addr,
		Sessions:  o.Sessions,
		Obs:       o.Obs,
		Dim:       fleet.FeatureDim,
		Batch:     o.Batch,
		Window:    o.Window,
		Seed:      o.Seed,
		Timeout:   o.Timeout,
		DialBurst: o.DialBurst,
		Latency:   lat,
	}
	rep := report{Sessions: o.Sessions, ObsPerSess: o.Obs, Seed: o.Seed}

	var (
		f   *fleet.Fleet
		srv *server.Server
	)
	if o.Addr == "" {
		var err error
		f, err = fleet.New(fleetConfig(o))
		if err != nil {
			return err
		}
		if err := f.Start(); err != nil {
			return err
		}
		srv = server.New(f, server.Config{})
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			return err
		}
		load.Addr = addr.String()
		if o.Control != "" {
			ctl, _ := srv.ServeControl(o.Control, reg)
			defer ctl.Close()
		}
	}

	res, err := server.RunLoad(load)
	if err != nil {
		return err
	}
	rep.Sent, rep.Acked, rep.Nacked = res.Sent, res.Acked, res.Nacked
	rep.Lost = int64(o.Sessions)*int64(o.Obs) - res.Acked
	rep.Elapsed = res.Elapsed
	rep.ObsSec = float64(res.Acked) / res.Elapsed.Seconds()
	if snap, ok := reg.Snapshot().Histogram("loadgen.rtt_us"); ok {
		rep.P50us = snap.Quantile(0.50)
		rep.P95us = snap.Quantile(0.95)
		rep.P99us = snap.Quantile(0.99)
		if o.Batch > 0 && snap.Count > 0 {
			rep.Batch = o.Batch
			rep.Window = o.Window
			if rep.Window == 0 {
				rep.Window = 4
			}
			rep.AmortUs = float64(snap.Sum) / float64(snap.Count)
		}
	}

	if srv != nil {
		srv.Close()
		f.Close()
		c := srv.Counters()
		rep.Counters = &c
		st := f.Stats()
		rep.Fingerprint = st.Fingerprint()
	}

	if o.Verify {
		// Built unwired, so the -metrics dump describes the served run alone.
		affectedge.WireMetrics(nil)
		twin, err := fleet.New(pinnedConfig(o))
		if err != nil {
			return err
		}
		if err := twin.Start(); err != nil {
			return err
		}
		if _, err := server.DirectLoad(twin, load); err != nil {
			return err
		}
		twin.Close()
		rep.DirectFingerprint = twin.Stats().Fingerprint()
		match := rep.DirectFingerprint == rep.Fingerprint
		rep.VerifyMatch = &match
		if !match {
			defer os.Exit(1)
		}
	}

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

// serveReport is the -listen mode's shutdown summary: written on SIGINT
// after the server and fleet have fully drained, so Fingerprint is the
// final state a -direct twin must reproduce.
type serveReport struct {
	Sessions    int             `json:"sessions"`
	Seed        int64           `json:"seed"`
	Counters    server.Counters `json:"server_counters"`
	Drops       int64           `json:"drops"`
	Fingerprint string          `json:"fingerprint"`
}

// serve runs the ingest fleet as a standalone process: listen, announce
// on stderr, block until SIGINT/SIGTERM, drain, report on stdout.
func serve(o options, out *os.File) error {
	reg := affectedge.NewMetricsRegistry()
	if o.Metrics != "" {
		affectedge.WireMetrics(reg)
		defer affectedge.WireMetrics(nil)
	}
	server.WireMetrics(reg.Scope("server"))
	f, err := fleet.New(fleetConfig(o))
	if err != nil {
		return err
	}
	if err := f.Start(); err != nil {
		return err
	}
	srv := server.New(f, server.Config{ReadTimeout: o.ReadTimeout})
	addr, err := srv.Listen(o.Listen)
	if err != nil {
		return err
	}
	if o.Control != "" {
		ctl, _ := srv.ServeControl(o.Control, reg)
		defer ctl.Close()
	}
	fmt.Fprintf(os.Stderr, "fleetload: serving %d sessions on %s\n", o.Sessions, addr)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	srv.Close()
	f.Close()
	st := f.Stats()
	rep := serveReport{
		Sessions:    o.Sessions,
		Seed:        o.Seed,
		Counters:    srv.Counters(),
		Drops:       st.Drops,
		Fingerprint: st.Fingerprint(),
	}
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

// direct runs the socket-free twin: identical traffic into an in-process
// fleet, fingerprint on stdout.
func direct(o options, out *os.File) error {
	f, err := fleet.New(fleetConfig(o))
	if err != nil {
		return err
	}
	if err := f.Start(); err != nil {
		return err
	}
	load := server.LoadConfig{
		Sessions: o.Sessions,
		Obs:      o.Obs,
		Dim:      f.FeatureDim(),
		Seed:     o.Seed,
		Timeout:  o.Timeout,
	}
	res, err := server.DirectLoad(f, load)
	if err != nil {
		return err
	}
	f.Close()
	st := f.Stats()
	rep := report{
		Sessions:    o.Sessions,
		ObsPerSess:  o.Obs,
		Seed:        o.Seed,
		Sent:        res.Sent,
		Acked:       res.Acked,
		Nacked:      res.Nacked,
		Lost:        int64(o.Sessions)*int64(o.Obs) - res.Acked,
		Elapsed:     res.Elapsed,
		ObsSec:      float64(res.Acked) / res.Elapsed.Seconds(),
		Fingerprint: st.Fingerprint(),
	}
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}
