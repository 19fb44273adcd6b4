package shard

import (
	"runtime"
	"testing"
	"time"

	"fastsocket/internal/sim"
)

// ringTrace runs a deterministic multi-domain workload — token rings
// of cross-domain posts plus local timer churn — and returns each
// domain's private trace of (time, token) observations. Traces are
// per-domain because during a window only that domain's worker may
// touch its state; cross-domain convergence (several sources mailing
// one destination for the same tick) makes the (at, src, seq) drain
// order load-bearing, not decorative. Times scale with the hop (the
// lookahead); step > 0 advances the engine in Run calls of that size
// instead of one.
func ringTrace(workers, domains int, hop, until, step sim.Time) ([][]uint64, *Engine) {
	e := NewEngine(Config{Lookahead: hop, Workers: workers})
	loops := make([]*sim.Loop, domains)
	rngs := make([]*sim.Rand, domains)
	for i := 0; i < domains; i++ {
		loops[i] = e.AddDomain("d")
		rngs[i] = sim.NewRand(uint64(i + 1))
	}
	traces := make([][]uint64, domains)
	hopFn := make([]func(any), domains)
	for i := 0; i < domains; i++ {
		i := i
		hopFn[i] = func(v any) {
			token := v.(uint64)
			traces[i] = append(traces[i], uint64(loops[i].Now())<<16|token&0xFFFF)
			// Local churn: schedule-and-cancel plus a short local event,
			// drawn from the domain's own stream.
			ev := loops[i].After(sim.Time(rngs[i].Intn(40))*hop/50, func() {})
			if rngs[i].Bool(0.5) {
				ev.Cancel()
			}
			// Tokens hop the ring with a bounded lifetime; quantized
			// delays make simultaneous arrivals from different sources
			// common.
			if token&0xFF >= 200 {
				return
			}
			at := loops[i].Now() + hop + sim.Time(rngs[i].Intn(3))*hop
			e.Post(i, (i+1)%domains, at, hopFn[(i+1)%domains], token+1)
		}
	}
	// Seed several tokens per domain at staggered times.
	for i := 0; i < domains; i++ {
		for t := 0; t < 3; t++ {
			loops[i].AtArg(sim.Time(t+1)*hop*13/50, hopFn[i], uint64(t))
		}
	}
	if step > 0 {
		for t := step; t < until; t += step {
			e.Run(t)
		}
	}
	e.Run(until)
	e.Close()
	return traces, e
}

// sameTrace fails t unless a parallel run reproduced the serial
// reference: every domain's trace, the fired count and the stats.
func sameTrace(t *testing.T, workers int, ref, got [][]uint64, refEng, eng *Engine) {
	t.Helper()
	for d := range ref {
		if len(got[d]) != len(ref[d]) {
			t.Fatalf("workers=%d domain %d: %d observations vs %d serial",
				workers, d, len(got[d]), len(ref[d]))
		}
		for i := range ref[d] {
			if got[d][i] != ref[d][i] {
				t.Fatalf("workers=%d domain %d: trace diverges at %d: %#x vs %#x",
					workers, d, i, got[d][i], ref[d][i])
			}
		}
	}
	if eng.Fired() != refEng.Fired() {
		t.Fatalf("workers=%d: fired %d vs serial %d", workers, eng.Fired(), refEng.Fired())
	}
	if eng.Stats() != refEng.Stats() {
		t.Fatalf("workers=%d: stats %+v vs serial %+v", workers, eng.Stats(), refEng.Stats())
	}
}

// serialRef runs ringTrace's serial reference and fails t unless it
// fired events and mailed across domains.
func serialRef(t *testing.T, domains int, hop, until, step sim.Time) ([][]uint64, *Engine) {
	t.Helper()
	ref, refEng := ringTrace(1, domains, hop, until, step)
	total := 0
	for _, tr := range ref {
		total += len(tr)
	}
	if total == 0 {
		t.Fatal("workload fired nothing; test is vacuous")
	}
	if refEng.Stats().Posted == 0 {
		t.Fatal("no cross-domain mail; test is vacuous")
	}
	return ref, refEng
}

// TestParallelMatchesSerial is the engine's core promise: the trace of
// every domain-local observation is bit-identical whether the domains
// run on one goroutine or several. Run under -race this also proves
// the barrier protocol is well-synchronized. The last case runs four
// workers on one P, so spinners outnumber Ps and must still finish.
func TestParallelMatchesSerial(t *testing.T) {
	const domains = 5
	const hop = 50 * sim.Microsecond
	until := 20 * sim.Millisecond
	ref, refEng := serialRef(t, domains, hop, until, 0)
	for _, c := range []struct{ workers, procs int }{{2, 0}, {3, 0}, {8, 0}, {4, 1}} {
		prev := runtime.GOMAXPROCS(c.procs)
		got, eng := ringTrace(c.workers, domains, hop, until, 0)
		runtime.GOMAXPROCS(prev)
		sameTrace(t, c.workers, ref, got, refEng, eng)
	}
}

// TestTinyStepsMatchSerial hammers the release/arrival handshake:
// thousands of 1 ns Run calls make every barrier nearly empty, so a
// lost wakeup would hang and a missing happens-before edge would show
// under -race. With spinYields at 0 every wait parks, which is where a
// lost wakeup lives; the spinning runs rarely get that far.
func TestTinyStepsMatchSerial(t *testing.T) {
	const domains = 5
	const hop = 100 * sim.Nanosecond
	until := 4 * sim.Microsecond
	ref, refEng := serialRef(t, domains, hop, until, 1)
	if refEng.Stats().Epochs < 2*uint64(until) {
		t.Fatalf("%d epochs; want two per 1 ns step", refEng.Stats().Epochs)
	}
	defer func(n int) { spinYields = n }(spinYields)
	for _, spin := range []int{spinYields, 0} {
		spinYields = spin
		for _, workers := range []int{2, 3} {
			got, eng := ringTrace(workers, domains, hop, until, 1)
			sameTrace(t, workers, ref, got, refEng, eng)
		}
	}
}

// TestIdleHelpersPark: once Run returns, helpers spin for a bounded
// time and then park, so an idle engine burns no CPU.
func TestIdleHelpersPark(t *testing.T) {
	const workers = 3
	e := NewEngine(Config{Lookahead: 50 * sim.Microsecond, Workers: workers})
	for i := 0; i < workers; i++ {
		e.AddDomain("d").At(sim.Time(i+1)*sim.Microsecond, func() {})
	}
	e.Run(sim.Millisecond)
	defer e.Close()
	if len(e.workers) != workers-1 {
		t.Fatalf("%d helpers for %d workers; want %d (the caller is worker 0)",
			len(e.workers), workers, workers-1)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		parked := 0
		for _, wk := range e.workers {
			if wk.asleep.Load() {
				parked++
			}
		}
		if parked == len(e.workers) {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d helpers parked 5 s after Run returned", parked, len(e.workers))
		}
		time.Sleep(time.Millisecond)
	}
}

// TestCloseIdempotent: Close joins the helpers once, a second Close is
// a no-op, and an engine that never ran closes trivially.
func TestCloseIdempotent(t *testing.T) {
	e := NewEngine(Config{Lookahead: 50 * sim.Microsecond, Workers: 2})
	e.AddDomain("a")
	e.AddDomain("b")
	e.Run(sim.Millisecond)
	e.Close()
	e.Close()
	if len(e.workers) != 0 {
		t.Fatalf("%d helpers left after Close", len(e.workers))
	}

	never := NewEngine(Config{Lookahead: 50 * sim.Microsecond, Workers: 2})
	never.AddDomain("a")
	never.AddDomain("b")
	never.Close()
	never.Close()
}

// TestPendingAggregatesAcrossShards is the churn regression for the
// Pending()/counter accounting: through heavy schedule/cancel/mail
// churn the engine total must equal the sorted per-shard sum plus
// undelivered mail at every barrier, and must drain to exactly zero —
// independent of worker count.
func TestPendingAggregatesAcrossShards(t *testing.T) {
	for _, workers := range []int{1, 4} {
		const hop = 100 * sim.Microsecond
		e := NewEngine(Config{Lookahead: hop, Workers: workers})
		a := e.AddDomain("a")
		b := e.AddDomain("b")
		c := e.AddDomain("c")
		loops := []*sim.Loop{a, b, c}
		// Three bouncing tokens, one seeded per domain; each arg encodes
		// (hopCount, currentDomain) so the only state a bounce touches is
		// its own domain's — per-domain hop tallies, no cross-thread
		// sharing even when workers run domains concurrently.
		hopTally := [3]int{}
		var bounce func(any)
		bounce = func(v any) {
			enc := v.(int)
			count, d := enc>>2, enc&3
			hopTally[d]++
			if count >= 167 {
				return
			}
			nd := (d + 1) % 3
			e.Post(d, nd, loops[d].Now()+hop+sim.Time(count%7)*sim.Microsecond, bounce, (count+1)<<2|nd)
		}
		// Cancel-heavy local churn on every domain plus the bouncing mail.
		for i, l := range loops {
			for j := 0; j < 200; j++ {
				ev := l.After(sim.Time(j)*3*sim.Microsecond, func() {})
				if j%2 == 0 {
					ev.Cancel()
				}
			}
			l.AtArg(sim.Time(i+1)*10*sim.Microsecond, bounce, 0<<2|i)
		}

		want := 0
		for _, l := range loops {
			want += l.Pending()
		}
		if got := e.Pending(); got != want {
			t.Fatalf("workers=%d: Pending %d, per-shard sum %d", workers, got, want)
		}
		// Step in barrier-sized slices, checking the aggregate at each.
		for step := sim.Time(0); step < 100*sim.Millisecond; step += 5 * sim.Millisecond {
			e.Run(step)
			want = 0
			for _, l := range loops {
				want += l.Pending()
			}
			mailed := 0
			for _, row := range e.mail {
				for _, mb := range row {
					mailed += len(mb.items)
				}
			}
			if got := e.Pending(); got != want+mailed {
				t.Fatalf("workers=%d at %v: Pending %d, want %d local + %d mailed",
					workers, step, got, want, mailed)
			}
			// Posted counts mail still in flight at the barrier too.
			if st := e.Stats(); st.Posted != st.Drained+uint64(mailed) {
				t.Fatalf("workers=%d at %v: Posted %d, want %d drained + %d mailed",
					workers, step, st.Posted, st.Drained, mailed)
			}
		}
		e.Run(sim.Second)
		if got := e.Pending(); got != 0 {
			t.Fatalf("workers=%d: %d events pending after drain-out", workers, got)
		}
		if total := hopTally[0] + hopTally[1] + hopTally[2]; total != 3*168 {
			t.Fatalf("workers=%d: bounce ran %d hops, want %d", workers, total, 3*168)
		}
		e.Close()
	}
}

// TestLookaheadViolationPanics: a cross-domain post inside the
// current window is a modelling bug and must fail loudly.
func TestLookaheadViolationPanics(t *testing.T) {
	e := NewEngine(Config{Lookahead: 100 * sim.Microsecond})
	a := e.AddDomain("a")
	e.AddDomain("b")
	a.At(10*sim.Microsecond, func() {
		defer func() {
			if recover() == nil {
				t.Error("in-window cross-domain post did not panic")
			}
		}()
		e.Post(0, 1, 20*sim.Microsecond, func(any) {}, nil)
	})
	e.Run(sim.Millisecond)
	e.Close()
}

// TestRepeatedRunsContinue: warmup-then-window call patterns must not
// lose or replay barriers.
func TestRepeatedRunsContinue(t *testing.T) {
	e := NewEngine(Config{Lookahead: 50 * sim.Microsecond, Workers: 2})
	a := e.AddDomain("a")
	b := e.AddDomain("b")
	_ = b
	fired := 0
	for i := 1; i <= 20; i++ {
		a.At(sim.Time(i)*sim.Millisecond, func() { fired++ })
	}
	e.Run(5 * sim.Millisecond)
	if fired != 5 {
		t.Fatalf("after first Run: fired %d, want 5", fired)
	}
	e.Run(20 * sim.Millisecond)
	if fired != 20 {
		t.Fatalf("after second Run: fired %d, want 20", fired)
	}
	if e.Now() != 20*sim.Millisecond {
		t.Fatalf("Now %v, want 20ms", e.Now())
	}
	e.Close()
}
