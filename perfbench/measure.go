package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"runtime"
	"sort"
	"time"

	"fastsocket/internal/cache"
	"fastsocket/internal/fault"
	"fastsocket/internal/lock"
	"fastsocket/internal/shard"
	"fastsocket/internal/sim"
	"fastsocket/internal/stats"
)

// counters is the cumulative state of the layers' public accessors,
// summed over the bed's machines and clients in index order.
type counters struct {
	fired  uint64
	sched  sim.SchedStats
	shard  shard.Stats
	locks  map[string]lock.Stats
	busy   sim.Time
	cache  cache.Stats
	snmp   stats.SNMP
	faults fault.Stats

	softSteers, activeIn, activeLocal uint64

	launched, errors, retries, timeouts uint64
	connsDone                           uint64 // connections whose last response arrived
	inFlight                            uint64
}

func (b *bed) read() counters {
	c := counters{
		fired:  b.eng.Fired(),
		sched:  b.eng.SchedStats(),
		shard:  b.eng.Stats(),
		locks:  map[string]lock.Stats{},
		faults: b.netw.FaultStats(),
	}
	for _, k := range b.kernels {
		for _, row := range k.LockStats() {
			s := c.locks[row.Name]
			s.Acquisitions += row.Acquisitions
			s.Contended += row.Contended
			s.WaitTime += row.WaitTime
			s.HoldTime += row.HoldTime
			s.Bounces += row.Bounces
			c.locks[row.Name] = s
		}
		for _, t := range k.Machine().BusySnapshot() {
			c.busy += t
		}
		cs := k.Cache().Stats()
		c.cache.Accesses += cs.Accesses
		c.cache.Misses += cs.Misses
		c.cache.Bounces += cs.Bounces
		c.snmp = c.snmp.Add(k.SNMP())
		st := k.Stats()
		c.softSteers += st.SoftSteers
		c.activeIn += st.ActiveIn
		c.activeLocal += st.ActiveLocal
	}
	for _, cl := range b.clients {
		c.launched += cl.Launched()
		c.errors += cl.Errors
		c.retries += cl.Retries
		c.timeouts += cl.ConnTimeouts
		c.connsDone += cl.ConnLatencies.Count()
		c.inFlight += uint64(cl.InFlight())
	}
	return c
}

// rep is one measured repetition: build, warm up, run the window.
type rep struct {
	setup, wall time.Duration
	kernelNew   time.Duration
	warmup      time.Duration

	start, end counters
	resp       *stats.Histogram // window response latencies, merged over clients
	digest     string

	mallocs, gcs uint64 // host allocations and GC cycles during the window
}

// runRep builds a fresh bed for seed and measures one window. tr,
// when non-nil, records spans; onWindow, when non-nil, brackets the
// measured window (the traced run starts and stops its CPU profile
// there).
func runRep(w workload, seed uint64, tr *tracer, onWindow func(start bool)) (*rep, error) {
	runtime.GC()
	r := &rep{}
	top := tr.begin("rep", int64(seed))
	t0 := time.Now()
	sp := tr.begin("build", 0)
	b := build(w, seed, tr)
	tr.end(sp)
	defer b.close()
	sp = tr.begin("warmup", 0)
	tw := time.Now()
	b.run(w.warmup, tr)
	r.warmup = time.Since(tw)
	tr.end(sp)
	r.setup = time.Since(t0)
	r.kernelNew = b.kernelNew

	r.start = b.read()
	cumConns := make([]uint64, len(b.clients))
	for i, c := range b.clients {
		cumConns[i] = c.ConnLatencies.Count()
		c.Latencies.Reset()
		c.ConnLatencies.Reset()
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	if onWindow != nil {
		onWindow(true)
	}
	sp = tr.begin("window", 0)
	t1 := time.Now()
	b.run(w.warmup+w.window, tr)
	r.wall = time.Since(t1)
	tr.end(sp)
	if onWindow != nil {
		onWindow(false)
	}
	runtime.ReadMemStats(&m1)
	r.mallocs = m1.Mallocs - m0.Mallocs
	r.gcs = uint64(m1.NumGC - m0.NumGC)
	tr.end(top)

	r.end = b.read()
	// The windows' connection histograms were reset; add back the
	// warm-up's completions so connsDone stays cumulative.
	for _, n := range cumConns {
		r.end.connsDone += n
	}
	r.resp = stats.NewHistogram()
	for _, c := range b.clients {
		r.resp.Merge(c.Latencies)
	}
	r.digest = digest(b)
	if err := checkResolution(w, r.end); err != nil {
		return nil, err
	}
	return r, nil
}

// checkResolution checks that every connection attempt is accounted
// for exactly once. Each resolution (a completed or failed connection)
// opens exactly one replacement, so a closed loop always holds its
// full concurrency in flight. A connection in its closing handshake
// has already counted as completed and is still in flight, so the
// completed+failed count may exceed launched−in_flight by at most
// the connections in flight, and never exceeds launched.
func checkResolution(w workload, c counters) error {
	want := uint64(w.servers * w.cores * w.connsPerCore)
	if c.inFlight != want {
		return fmt.Errorf("closed loop holds %d connections in flight, want %d", c.inFlight, want)
	}
	resolved := c.connsDone + c.errors
	if resolved+c.inFlight < c.launched || resolved > c.launched {
		return fmt.Errorf("launched %d != completed %d + failed %d + in flight %d (closing handshakes allowed)",
			c.launched, c.connsDone, c.errors, c.inFlight)
	}
	return nil
}

// digestPercentiles samples a histogram's shape for the digest.
var digestPercentiles = func() []float64 {
	var ps []float64
	for p := 1.0; p < 100; p++ {
		ps = append(ps, p)
	}
	return append(ps, 99.5, 99.9, 99.99, 100)
}()

func writeHist(h io.Writer, name string, x *stats.Histogram) {
	fmt.Fprintf(h, "%s n=%d mean=%d min=%d max=%d", name, x.Count(), x.Mean(), x.Min(), x.Max())
	for _, p := range digestPercentiles {
		fmt.Fprintf(h, " %d", x.Percentile(p))
	}
	fmt.Fprintln(h)
}

// digest hashes the simulated outcome only: client counters and
// window latency histograms, SNMP, lockstat and per-core busy time.
// The engine's event count is deliberately left out, so a change that
// fuses event chains without changing the outcome keeps the digest.
func digest(b *bed) string {
	h := sha256.New()
	for i, c := range b.clients {
		fmt.Fprintf(h, "client%d launched=%d completed=%d errors=%d bytes=%d timeouts=%d retries=%d inflight=%d\n",
			i, c.Launched(), c.Completed, c.Errors, c.Bytes, c.ConnTimeouts, c.Retries, c.InFlight())
		writeHist(h, "resp", c.Latencies)
		writeHist(h, "conn", c.ConnLatencies)
	}
	for i, k := range b.kernels {
		fmt.Fprintf(h, "kernel%d snmp=%+v\n", i, k.SNMP())
		for _, row := range k.LockStats() {
			fmt.Fprintf(h, "lock %s acq=%d cont=%d wait=%d hold=%d bounces=%d\n", row.Name,
				row.Acquisitions, row.Contended, row.WaitTime, row.HoldTime, row.Bounces)
		}
		fmt.Fprintf(h, "busy %d\n", k.Machine().BusySnapshot())
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

// percentile returns the p-th percentile of h in microseconds,
// interpolated linearly by rank within its bucket. The histogram alone
// reports a bucket's lower edge (~6% steps above 64 µs), which would
// hide every difference smaller than a step.
func percentile(h *stats.Histogram, p float64) float64 {
	n := h.Count()
	if n == 0 {
		return 0
	}
	at := func(k int) sim.Time { return h.Percentile(100 * (float64(k) + 0.5) / float64(n)) }
	rank := p / 100 * float64(n)
	k := min(int(rank), int(n)-1)
	low := at(k)
	first := sort.Search(k, func(i int) bool { return at(i) >= low })
	end := k + 1 + sort.Search(int(n)-k-1, func(i int) bool { return at(k+1+i) > low })
	frac := (rank - float64(first)) / float64(end-first)
	return us(low) + frac*us(bucketWidth(low))
}

// bucketWidth finds, through the histogram's public API, the width of
// the bucket whose lower edge is low: the smallest step up that a
// one-sample histogram reports as a different bucket.
func bucketWidth(low sim.Time) sim.Time {
	probe := stats.NewHistogram()
	edgeOf := func(v sim.Time) sim.Time {
		probe.Reset()
		probe.Add(v)
		return probe.Percentile(50)
	}
	span := low + 64*sim.Microsecond
	return sim.Time(sort.Search(int(span), func(d int) bool { return edgeOf(low+sim.Time(d)) > low }))
}
