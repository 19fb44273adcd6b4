package experiment

import (
	"fmt"
	"hash/fnv"
	"testing"

	"fastsocket/internal/kernel"
	"fastsocket/internal/lock"
	"fastsocket/internal/sim"
)

// digestOf folds every number a Measurement reports into one FNV-1a
// digest. Lock counters are folded in the fixed kernel.LockNames
// order so the digest itself cannot depend on map iteration.
func digestOf(m Measurement) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "tput=%v|window=%d|p99=%d|errors=%d|steers=%d|l3=%v|local=%v|",
		m.Throughput, m.Window, m.P99Latency, m.Errors, m.SoftSteers, m.L3MissRate, m.LocalPct)
	fmt.Fprintf(h, "p99conn=%d|snmp=%+v|", m.P99Conn, m.SNMP)
	for _, name := range kernel.LockNames {
		fmt.Fprintf(h, "lock.%s=%d|", name, m.LockContended[name])
	}
	for i, u := range m.Utilization {
		fmt.Fprintf(h, "u%d=%v|", i, u)
	}
	return h.Sum64()
}

// small keeps the regression runs fast; determinism does not need a
// long steady-state window, only an identical one.
func small() Options {
	return Options{
		Warmup:             10 * sim.Millisecond,
		Window:             10 * sim.Millisecond,
		ConcurrencyPerCore: 50,
	}
}

// TestSimulationIsBitReproducible runs the same experiment twice with
// identical seeds and requires bit-identical throughput, lockstat and
// cache digests. This is the invariant every figure in the paper
// reproduction rests on: if this test fails, no reported number can
// be trusted, and the usual culprit is a map iteration or wall-clock
// read that fsvet (cmd/fsvet) should have caught.
func TestSimulationIsBitReproducible(t *testing.T) {
	for _, spec := range StockKernels() {
		spec := spec
		t.Run(spec.Label, func(t *testing.T) {
			a := Measure(spec, WebBench, 4, small())
			b := Measure(spec, WebBench, 4, small())
			da, db := digestOf(a), digestOf(b)
			if da != db {
				t.Errorf("two identical runs diverged: digest %#x vs %#x\nrun1: %+v\nrun2: %+v",
					da, db, a, b)
			}
			if a.Throughput <= 0 {
				t.Errorf("implausible throughput %v: determinism check ran nothing", a.Throughput)
			}
		})
	}
}

// TestProxyBenchIsBitReproducible covers the active-connection path
// (connect(), RFD steering, backend sockets) as well.
func TestProxyBenchIsBitReproducible(t *testing.T) {
	spec := StockKernels()[2] // fastsocket
	a := Measure(spec, ProxyBench, 4, small())
	b := Measure(spec, ProxyBench, 4, small())
	if da, db := digestOf(a), digestOf(b); da != db {
		t.Errorf("proxy runs diverged: digest %#x vs %#x", da, db)
	}
}

// TestFullRunIsLockdepClean drives a whole measurement with the
// runtime lock-discipline checker enabled: no double acquisitions, no
// stray releases, no lock-order inversions anywhere in the simulated
// kernels' hot paths.
func TestFullRunIsLockdepClean(t *testing.T) {
	lock.EnableLockdep()
	defer lock.DisableLockdep()
	for _, spec := range StockKernels() {
		Measure(spec, WebBench, 4, small())
	}
	Measure(StockKernels()[2], ProxyBench, 4, small())
	if v := lock.LockdepViolations(); len(v) != 0 {
		t.Errorf("lockdep violations during simulation:\n%s", v)
	}
}
