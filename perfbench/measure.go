package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"

	"affectedge/internal/fleet"
	"affectedge/internal/server"
)

// pass is everything one measured run of a workload produced.
type pass struct {
	sessions int
	setup    []float64 // the trial's set-up time in seconds

	issued, acked, applied, hardErrs int64
	checks                           []check

	wall    time.Duration // first send until the applied count reached issued
	ack     []float64     // µs per call, due/issue until every observation in it was accepted
	lag     []float64     // µs per poll: poll time minus due time of the A-th observation
	backlog []float64     // observations issued but not applied, per poll
	late    []float64     // µs from one call's return to the generator's next call
	pollDur []float64     // µs per applied-count poll

	res            usage
	heapPerSession float64 // HeapInuse bytes the set-up added, per session

	stats    *fleet.Stats
	counters *server.Counters
	tr       *tracer
	replay   []replayObs // the workload's own inputs, for the layer replay
	rows     int         // realised inference batch size for the layer replay

	ackSum, lagSum summary
	queueHigh      float64 // traced: highest shard queue high-water mark in the timed window
	checkpoint     string  // sim_video: fingerprint at the checkpoint tick
	concealed      int64   // sim_video: probe frames concealed by the checkpoint tick
}

// summary is what a trial's ack or lag samples reduce to.
type summary struct {
	n            int
	p50, tail, q float64
}

func summarize(xs []float64) summary {
	s := summary{n: len(xs), p50: median(xs)}
	s.tail, s.q = tail(xs)
	return s
}

// check is one output check.
type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

func (p *pass) check(name string, ok bool, detail string) {
	p.checks = append(p.checks, check{Name: name, OK: ok, Detail: detail})
}

// failedChecks counts the checks that did not pass.
func (p *pass) failedChecks() int64 {
	n := int64(0)
	for _, c := range p.checks {
		if !c.OK {
			n++
		}
	}
	return n
}

// usage is the process's resource use over the timed window.
type usage struct {
	cpu      time.Duration
	alloc    uint64
	gcCycles uint32
	gcPause  time.Duration
	peakHeap uint64
}

// meter brackets the timed window.
type meter struct {
	cpu0 time.Duration
	ms0  runtime.MemStats
	heap *heapSampler
}

func startMeter() *meter {
	m := &meter{cpu0: cpuTime(), heap: startHeapSampler(2 * time.Millisecond)}
	runtime.ReadMemStats(&m.ms0)
	return m
}

func (m *meter) stop() usage {
	cpu := cpuTime() - m.cpu0
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return usage{
		cpu:      cpu,
		alloc:    ms.TotalAlloc - m.ms0.TotalAlloc,
		gcCycles: ms.NumGC - m.ms0.NumGC,
		gcPause:  time.Duration(ms.PauseTotalNs - m.ms0.PauseTotalNs),
		peakHeap: m.heap.stop(),
	}
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// heapInuse reads runtime.MemStats.HeapInuse without stopping the world:
// in-use spans hold objects plus their unused slack.
func heapInuse(s []metrics.Sample) uint64 {
	metrics.Read(s)
	return s[0].Value.Uint64() + s[1].Value.Uint64()
}

func heapSamples() []metrics.Sample {
	return []metrics.Sample{
		{Name: "/memory/classes/heap/objects:bytes"},
		{Name: "/memory/classes/heap/unused:bytes"},
	}
}

// heapSampler tracks peak HeapInuse from its own goroutine.
type heapSampler struct {
	done chan struct{}
	wg   sync.WaitGroup
	peak uint64
}

func startHeapSampler(every time.Duration) *heapSampler {
	h := &heapSampler{done: make(chan struct{})}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		s := heapSamples()
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			if v := heapInuse(s); v > h.peak {
				h.peak = v
			}
			select {
			case <-h.done:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

// stop ends sampling and returns the peak.
func (h *heapSampler) stop() uint64 {
	close(h.done)
	h.wg.Wait()
	return h.peak
}

// quantile returns the q-quantile of xs by nearest rank (0 for no samples).
func quantile(xs []float64, q float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[max(0, int(math.Ceil(q*float64(n)))-1)]
}

// tail returns the p99 of xs or, when fewer than 10 samples lie beyond
// p99, the highest quantile that has 10 beyond it; and the quantile used.
func tail(xs []float64) (v, q float64) {
	q = math.Max(0.5, math.Min(0.99, 1-10/float64(len(xs))))
	return quantile(xs, q), q
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// midMean is the interquartile mean: the mean of xs without its lowest
// and highest quarter.
func midMean(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := len(s) / 4
	return mean(s[k : len(s)-k])
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// us converts a duration to float microseconds.
func us(d time.Duration) float64 { return float64(d) / 1e3 }

// ratio is a/b, or 0 when b is 0 (a layer the workload does not use).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// timedBuild runs build once after a GC and returns what it built, the
// build time in seconds as a one-sample set-up record, and the HeapInuse
// the build added.
func timedBuild[T any](build func() (T, error)) (T, []float64, uint64, error) {
	s := heapSamples()
	runtime.GC()
	h0 := heapInuse(s)
	t := time.Now()
	v, err := build()
	if err != nil {
		return v, nil, 0, err
	}
	took := time.Since(t).Seconds()
	runtime.GC()
	added := uint64(0)
	if h1 := heapInuse(s); h1 > h0 {
		added = h1 - h0
	}
	return v, []float64{took}, added, nil
}

// trials runs trials, each on a fresh set-up, until at least n have run
// and their measured wall times add up to --seconds, and returns their
// passes. Each trial is offered an nth of --seconds as its window; a
// trial that runs a fixed amount of work instead ignores it. endToEnd
// reduces the passes to one value per metric.
func trials(o options, n int, trial func(window time.Duration) (*pass, error)) ([]*pass, error) {
	total := time.Duration(o.seconds) * time.Second
	var (
		ps       []*pass
		measured time.Duration
	)
	for len(ps) < n || measured < total {
		p, err := trial(total / time.Duration(n))
		if err != nil {
			return nil, err
		}
		// Keep the summaries, not the samples, so trials do not carry each
		// other's samples on the heap.
		p.ackSum, p.lagSum = summarize(p.ack), summarize(p.lag)
		p.ack, p.lag = nil, nil
		if len(ps) > 0 {
			p.replay = nil // the layer replay uses the first trial's inputs
		}
		measured += p.wall
		ps = append(ps, p)
	}
	return ps, nil
}
