package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/pprof"
	"time"

	"fastsocket/internal/sim"
)

// metricDef names one reported metric. The two catalogues below are
// the benchmark's contract: every run prints exactly one of them.
type metricDef struct {
	name, unit, better string
}

// endToEndDefs are what a user of the simulator sees: host cost of a
// simulation, and the simulated results it produced. The sim_* values
// are deterministic for a seed; a speed-up must leave them identical.
var endToEndDefs = []metricDef{
	{"setup_s", "s", "lower"},       // build the bed and run the simulated warm-up
	{"wall_s", "s", "lower"},        // run the measured simulated window
	{"heap_peak_mb", "MB", "lower"}, // peak resident memory of the process
	{"sim_resp_per_s", "1/s", "higher"},
	{"sim_resp_p50_us", "us", "lower"},
	{"sim_resp_p999_us", "us", "lower"},
	{"sim_success_ratio", "ratio", "higher"}, // 1 - failed/launched connection attempts
}

// selfLayers are the layers whose host self time the traced run's
// CPU profile attributes: internal/ package names, plus runtime for
// everything outside the module (GC, malloc, the standard library).
var selfLayers = []string{
	"sim", "shard", "lock", "ktimer", "kernel", "tcp", "tcb", "vfs", "epoll",
	"core", "nic", "netproto", "cache", "cpu", "fault", "app", "stats", "runtime",
}

// perLayerDefs are the traced run's metrics. Which end-to-end metric
// each should move, and on which workload:
//
//   - sim.*: wall_s, most on keepalive (engine-bound).
//   - shard.*: wall_s on fleet-lossy; no change on short/keepalive.
//   - lock.self_s and lock.acquire_release_ns: wall_s on short more
//     than keepalive. The simulated lock counts move only
//     sim_resp_per_s and sim_resp_p999_us, and only under a model
//     change.
//   - <layer>.self_s: wall_s — tcb/vfs on short, tcp/epoll on
//     keepalive, fault/ktimer on fleet-lossy.
//   - the simulated counts (cpu, cache, core, kernel, tcp, nic,
//     fault, app) explain sim_resp_p999_us and sim_success_ratio on
//     fleet-lossy.
//   - runtime.*: heap_peak_mb and wall_s on every workload.
//   - kernel.new_s and warmup_s: setup_s.
var perLayerDefs = func() []metricDef {
	var defs []metricDef
	for _, l := range selfLayers {
		defs = append(defs, metricDef{l + ".self_s", "s", "lower"})
	}
	return append(defs,
		metricDef{"sim.events", "count", "lower"},
		metricDef{"sim.ns_per_event", "ns", "lower"},
		metricDef{"sim.events_per_resp", "events/resp", "lower"},
		metricDef{"sim.cancel_ratio", "ratio", "lower"},
		metricDef{"sim.wheel_share", "ratio", "higher"},
		metricDef{"sim.schedule_fire_ns", "ns", "lower"},
		metricDef{"sim.schedule_cancel_ns", "ns", "lower"},
		metricDef{"shard.epochs", "count", "lower"},
		metricDef{"shard.mail_posted", "count", "lower"},
		metricDef{"shard.mail_per_event", "ratio", "lower"},
		metricDef{"lock.acquire_release_ns", "ns", "lower"},
		metricDef{"lock.acquisitions", "count", "lower"},
		metricDef{"lock.contended_ratio", "ratio", "lower"},
		metricDef{"lock.bounces", "count", "lower"},
		metricDef{"lock.sim_wait_ns_per_resp", "ns/resp", "lower"},
		metricDef{"lock.sim_hold_ns_per_resp", "ns/resp", "lower"},
		metricDef{"cpu.sim_util", "ratio", "higher"},
		metricDef{"cpu.sim_busy_ns_per_resp", "ns/resp", "lower"},
		metricDef{"cache.l3_miss_rate", "ratio", "lower"},
		metricDef{"core.local_pct", "%", "higher"},
		metricDef{"kernel.soft_steers", "count", "lower"},
		metricDef{"tcp.retrans_segs", "count", "lower"},
		metricDef{"tcp.listen_drops", "count", "lower"},
		metricDef{"nic.rx_ring_drops", "count", "lower"},
		metricDef{"fault.drops", "count", "lower"},
		metricDef{"app.errors", "count", "lower"},
		metricDef{"app.retries", "count", "lower"},
		metricDef{"app.conn_timeouts", "count", "lower"},
		metricDef{"app.resp_samples", "count", "higher"},
		metricDef{"runtime.allocs_per_event", "allocs/event", "lower"},
		metricDef{"runtime.gc_cycles", "count", "lower"},
		metricDef{"kernel.new_s", "s", "lower"},
		metricDef{"warmup_s", "s", "lower"},
		metricDef{"trace.overhead_s", "s", "lower"},
		metricDef{"host.cpus", "count", "higher"},
		metricDef{"host.gomaxprocs", "count", "higher"},
	)
}()

// fill turns computed values into metrics, checking that they cover
// the catalogue exactly.
func fill(defs []metricDef, vals map[string]float64) (map[string]metric, error) {
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		v, ok := vals[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s not computed", d.name)
		}
		out[d.name] = metric{Value: v, Unit: d.unit}
	}
	if len(vals) != len(defs) {
		return nil, fmt.Errorf("%d metrics computed, catalogue has %d", len(vals), len(defs))
	}
	return out, nil
}

func secs(d time.Duration) float64 { return d.Seconds() }
func us(t sim.Time) float64        { return float64(t) / float64(sim.Microsecond) }

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// endToEndMetrics reduces a set of repetitions to the end-to-end
// metrics: medians for host times, the (identical) simulated outcome
// of the first repetition for the sim_* values.
func endToEndMetrics(w workload, reps []*rep, heapMB float64) (map[string]metric, error) {
	r := reps[0]
	return fill(endToEndDefs, map[string]float64{
		"setup_s":           medianOver(reps, func(r *rep) float64 { return secs(r.setup) }),
		"wall_s":            medianOver(reps, func(r *rep) float64 { return secs(r.wall) }),
		"heap_peak_mb":      heapMB,
		"sim_resp_per_s":    float64(r.resp.Count()) / w.window.Seconds(),
		"sim_resp_p50_us":   percentile(r.resp, 50),
		"sim_resp_p999_us":  percentile(r.resp, 99.9),
		"sim_success_ratio": 1 - ratio(r.end.errors-r.start.errors, r.end.launched-r.start.launched),
	})
}

// profiler takes one CPU profile per measured window.
type profiler struct {
	buf      bytes.Buffer
	profiles [][]byte
	err      error
}

func (p *profiler) window(start bool) {
	if start {
		p.buf.Reset()
		if err := pprof.StartCPUProfile(&p.buf); err != nil && p.err == nil {
			p.err = err
		}
		return
	}
	pprof.StopCPUProfile()
	p.profiles = append(p.profiles, bytes.Clone(p.buf.Bytes()))
}

// selfSeconds attributes every profile's samples to layers and
// returns the mean self seconds per window.
func (p *profiler) selfSeconds() (map[string]float64, error) {
	self := map[string]float64{}
	for _, l := range selfLayers {
		self[l] = 0
	}
	for _, prof := range p.profiles {
		byFn, err := leafSelfNanos(prof)
		if err != nil {
			return nil, err
		}
		for fn, ns := range byFn {
			l := layerOf(fn)
			if _, ok := self[l]; !ok {
				l = "runtime" // a package outside the catalogue
			}
			self[l] += float64(ns) / 1e9 / float64(len(p.profiles))
		}
	}
	return self, nil
}

// traced makes the per-layer run: untraced repetitions for half the
// budget (the baseline of trace.overhead_s and the host-side ratios),
// then traced repetitions for the other half, with spans around every
// call into a layer and a CPU profile of each window.
func traced(c *checker, w workload, seed uint64, budget time.Duration, h host, outDir string, log io.Writer) (map[string]metric, error) {
	plain := c.repeat(w, seed, budget/2, nil, nil)
	if len(plain) == 0 {
		return nil, nil
	}
	want := plain[0].digest
	c.sameDigest(w.name, plain, want)
	c.seedCheck(w, seed, want)

	tr := newTracer()
	prof := &profiler{}
	reps := c.repeat(w, seed, budget/2, tr, prof.window)
	if prof.err != nil {
		return nil, fmt.Errorf("cpu profile: %w", prof.err)
	}
	if len(reps) == 0 {
		return nil, nil
	}
	c.sameDigest(w.name+" traced", reps, want)
	self, err := prof.selfSeconds()
	if err != nil {
		return nil, err
	}

	// The lock probe runs at short's measured base.lock density.
	short, _ := findWorkload("short")
	densityRep := reps[0]
	if w.name != short.name {
		if densityRep = c.rep(short, seed, nil, nil); densityRep == nil {
			return nil, nil
		}
	}
	density := lockDensityOf(short, densityRep)

	vals := perLayerValues(w, plain, reps, h)
	for l, s := range self {
		vals[l+".self_s"] = s
	}
	vals["lock.acquire_release_ns"] = lockAcquireReleaseNs(density, probeOps)
	vals["sim.schedule_cancel_ns"] = scheduleCancelNs(probeOps)
	fmt.Fprintf(log, "outcome: workload=%s seed=%d digest=%s reps=%d traced_reps=%d resp_samples=%d\n",
		w.name, seed, want, len(plain), len(reps), plain[0].resp.Count())
	fmt.Fprintf(log, "lock probe: %s at %.0f acquisitions/s per instance, hold %d ns, %d cores (from short seed %d)\n",
		probedLock, density.perSec, density.hold, density.cores, seed)

	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	base := filepath.Join(outDir, fmt.Sprintf("%s-seed%d", w.name, seed))
	meta := map[string]any{"workload": w.name, "seed": seed, "digest": want,
		"host_cpus": h.cpus, "gomaxprocs": h.gomaxprocs, "go": h.goVersion}
	if err := tr.writeChrome(base+".trace.json", meta); err != nil {
		return nil, err
	}
	for i, p := range prof.profiles {
		if err := os.WriteFile(fmt.Sprintf("%s-window%d.cpu.pprof", base, i), p, 0o644); err != nil {
			return nil, err
		}
	}
	fmt.Fprintf(log, "trace: %s.trace.json (Chrome trace-event JSON), %d window CPU profiles %s-window*.cpu.pprof\n",
		base, len(prof.profiles), base)
	return fill(perLayerDefs, vals)
}

// perLayerValues computes every per-layer metric that is not a
// profile self time or a probe, from the untraced (plain) and traced
// repetitions' window counters.
func perLayerValues(w workload, plain, reps []*rep, h host) map[string]float64 {
	r := plain[0]
	s, e := r.start, r.end
	resp := r.resp.Count()
	events := e.fired - s.fired
	sched := e.sched.ScheduledHeap + e.sched.ScheduledWheel - s.sched.ScheduledHeap - s.sched.ScheduledWheel
	cancelled := e.sched.CancelledHeap + e.sched.CancelledWheel - s.sched.CancelledHeap - s.sched.CancelledWheel
	var acq, cont, bounces uint64
	var wait, hold sim.Time
	for name, l := range e.locks {
		l0 := s.locks[name]
		acq += l.Acquisitions - l0.Acquisitions
		cont += l.Contended - l0.Contended
		bounces += l.Bounces - l0.Bounces
		wait += l.WaitTime - l0.WaitTime
		hold += l.HoldTime - l0.HoldTime
	}
	cores := uint64(w.servers * w.cores)
	busy := uint64(e.busy - s.busy)
	plainWall := medianOver(plain, func(r *rep) float64 { return secs(r.wall) })
	tracedWall := medianOver(reps, func(r *rep) float64 { return secs(r.wall) })
	return map[string]float64{
		"sim.events":                float64(events),
		"sim.ns_per_event":          plainWall * 1e9 / float64(max(events, 1)),
		"sim.events_per_resp":       ratio(events, resp),
		"sim.cancel_ratio":          ratio(cancelled, sched),
		"sim.wheel_share":           ratio(e.sched.ScheduledWheel-s.sched.ScheduledWheel, sched),
		"sim.schedule_fire_ns":      h.scheduleFireNs,
		"shard.epochs":              float64(e.shard.Epochs - s.shard.Epochs),
		"shard.mail_posted":         float64(e.shard.Posted - s.shard.Posted),
		"shard.mail_per_event":      ratio(e.shard.Posted-s.shard.Posted, events),
		"lock.acquisitions":         float64(acq),
		"lock.contended_ratio":      ratio(cont, acq),
		"lock.bounces":              float64(bounces),
		"lock.sim_wait_ns_per_resp": ratio(uint64(wait), resp),
		"lock.sim_hold_ns_per_resp": ratio(uint64(hold), resp),
		"cpu.sim_util":              ratio(busy, cores*uint64(w.window)),
		"cpu.sim_busy_ns_per_resp":  ratio(busy, resp),
		"cache.l3_miss_rate":        ratio(e.cache.Misses-s.cache.Misses, e.cache.Accesses-s.cache.Accesses),
		"core.local_pct":            100 * ratio(e.activeLocal-s.activeLocal, e.activeIn-s.activeIn),
		"kernel.soft_steers":        float64(e.softSteers - s.softSteers),
		"tcp.retrans_segs":          float64(e.snmp.RetransSegs - s.snmp.RetransSegs),
		"tcp.listen_drops":          float64(e.snmp.ListenDrops - s.snmp.ListenDrops),
		"nic.rx_ring_drops":         float64(e.snmp.RxRingDrops - s.snmp.RxRingDrops),
		"fault.drops":               float64(e.faults.LinkDrops - s.faults.LinkDrops),
		"app.errors":                float64(e.errors - s.errors),
		"app.retries":               float64(e.retries - s.retries),
		"app.conn_timeouts":         float64(e.timeouts - s.timeouts),
		"app.resp_samples":          float64(resp),
		"runtime.allocs_per_event":  medianOver(plain, func(r *rep) float64 { return ratio(r.mallocs, events) }),
		"runtime.gc_cycles":         medianOver(plain, func(r *rep) float64 { return float64(r.gcs) }),
		"kernel.new_s":              medianOver(reps, func(r *rep) float64 { return secs(r.kernelNew) }),
		"warmup_s":                  medianOver(reps, func(r *rep) float64 { return secs(r.warmup) }),
		"trace.overhead_s":          tracedWall - plainWall,
		"host.cpus":                 float64(h.cpus),
		"host.gomaxprocs":           float64(h.gomaxprocs),
	}
}
