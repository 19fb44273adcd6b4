package main

import (
	"runtime"
	"time"

	"fastsocket/internal/lock"
	"fastsocket/internal/sim"
)

// Layer micro-probes: each times one layer's public API from outside,
// on synthetic input, so a change to that layer shows its gain (or
// cost) before it reaches an end-to-end metric. Every probe repeats
// probeRounds times and reports the median.

const probeRounds = 5

func medianOf(f func() float64) float64 {
	xs := make([]float64, probeRounds)
	for i := range xs {
		xs[i] = f()
	}
	return median(xs)
}

// scheduleFireNs times n Loop.After + RunUntil pairs: a sliding window
// of pending events at retransmit-timer-like horizons. It doubles as
// the host yardstick printed with every result.
func scheduleFireNs(n int) float64 {
	return medianOf(func() float64 {
		loop := sim.NewLoop()
		fn := func() {}
		const horizon = 200 * sim.Microsecond
		runtime.GC()
		t0 := time.Now()
		pending := 0
		for i := 0; i < n; i++ {
			loop.After(sim.Time(1+i%int(horizon)), fn)
			pending++
			if pending >= 1024 {
				loop.RunUntil(loop.Now() + horizon/4)
				pending = loop.Pending()
			}
		}
		loop.Run()
		return float64(time.Since(t0).Nanoseconds()) / float64(n)
	})
}

// scheduleCancelNs times n Loop.After + Event.Cancel pairs: armed
// timers that never fire, the retransmission-timer pattern.
func scheduleCancelNs(n int) float64 {
	return medianOf(func() float64 {
		loop := sim.NewLoop()
		fn := func() {}
		const horizon = 200 * sim.Microsecond
		runtime.GC()
		t0 := time.Now()
		for i := 0; i < n; i++ {
			loop.After(horizon, fn).Cancel()
			if i%64 == 0 {
				loop.RunUntil(loop.Now() + sim.Microsecond)
			}
		}
		loop.Run()
		return float64(time.Since(t0).Nanoseconds()) / float64(n)
	})
}

// lockDensity is the load one lock instance sees: how often it is
// acquired, for how long it is held, and by how many cores. The lock
// probe takes it from short's traced counters (see lockDensityOf).
type lockDensity struct {
	perSec float64  // acquisitions per simulated second
	hold   sim.Time // mean hold time
	cores  int
}

// probeCtx is a synthetic lock.Context: a virtual clock on one core.
type probeCtx struct {
	now  sim.Time
	core int
}

func (c *probeCtx) Now() sim.Time     { return c.now }
func (c *probeCtx) Spin(d sim.Time)   { c.now += d }
func (c *probeCtx) Charge(d sim.Time) { c.now += d }
func (c *probeCtx) CoreID() int       { return c.core }

// lockAcquireReleaseNs times n SpinLock.Acquire/Release pairs on one
// lock driven at density d: Poisson arrivals at d.perSec, dealt
// round-robin to d.cores acquirers, each holding for d.hold.
func lockAcquireReleaseNs(d lockDensity, n int) float64 {
	gap := sim.Time(float64(sim.Second) / d.perSec)
	return medianOf(func() float64 {
		l := lock.New("probe", 0)
		ctxs := make([]probeCtx, max(d.cores, 1))
		for i := range ctxs {
			ctxs[i].core = i
		}
		rng := sim.NewRand(1)
		var at sim.Time
		runtime.GC()
		t0 := time.Now()
		for i := 0; i < n; i++ {
			at += rng.Exp(gap)
			c := &ctxs[i%len(ctxs)]
			if c.now < at {
				c.now = at
			}
			l.Acquire(c)
			c.Charge(d.hold)
			l.Release(c)
		}
		return float64(time.Since(t0).Nanoseconds()) / float64(n)
	})
}

// probedLock is the lockstat row the lock probe models: the per-core
// ktimer base.lock, whose Arm/Cancel traffic is the hottest caller of
// the spinlock timeline on short.
const probedLock = "base.lock"

// lockDensityOf derives the probe's density from a traced short
// window: base.lock has one instance per simulated core.
func lockDensityOf(w workload, r *rep) lockDensity {
	s := r.end.locks[probedLock]
	s0 := r.start.locks[probedLock]
	acq := s.Acquisitions - s0.Acquisitions
	instances := w.servers * w.cores
	d := lockDensity{cores: w.cores, perSec: 1, hold: 1}
	if acq > 0 {
		d.perSec = float64(acq) / float64(instances) / w.window.Seconds()
		d.hold = (s.HoldTime - s0.HoldTime) / sim.Time(acq)
	}
	return d
}
