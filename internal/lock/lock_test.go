package lock

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"fastsocket/internal/sim"
)

// fakeCtx is a minimal lock.Context for tests.
type fakeCtx struct {
	now  sim.Time
	spin sim.Time
	core int
}

func (f *fakeCtx) Now() sim.Time     { return f.now }
func (f *fakeCtx) Spin(d sim.Time)   { f.now += d; f.spin += d }
func (f *fakeCtx) Charge(d sim.Time) { f.now += d }
func (f *fakeCtx) CoreID() int       { return f.core }

func TestUncontendedAcquire(t *testing.T) {
	l := New("test", 0)
	c := &fakeCtx{now: 100, core: 0}
	l.Acquire(c)
	c.Charge(50)
	l.Release(c)
	st := l.Stats()
	if st.Acquisitions != 1 || st.Contended != 0 {
		t.Errorf("stats = %+v, want 1 acquisition, 0 contended", st)
	}
	if st.HoldTime != 50 {
		t.Errorf("HoldTime = %v, want 50", st.HoldTime)
	}
	if c.spin != 0 {
		t.Errorf("uncontended acquire spun %v", c.spin)
	}
}

func TestContendedAcquireSpins(t *testing.T) {
	l := New("test", 0)
	a := &fakeCtx{now: 100, core: 0}
	l.Acquire(a)
	a.Charge(200)
	l.Release(a) // lock free at 300

	b := &fakeCtx{now: 150, core: 1}
	l.Acquire(b)
	if b.now != 300 {
		t.Errorf("contender resumed at %v, want 300", b.now)
	}
	if b.spin != 150 {
		t.Errorf("contender spun %v, want 150", b.spin)
	}
	st := l.Stats()
	if st.Contended != 1 {
		t.Errorf("Contended = %d, want 1", st.Contended)
	}
	if st.WaitTime != 150 {
		t.Errorf("WaitTime = %v, want 150", st.WaitTime)
	}
	l.Release(b)
}

func TestBouncePenaltyChargedCrossCore(t *testing.T) {
	l := New("test", 40)
	a := &fakeCtx{now: 0, core: 0}
	l.Acquire(a)
	l.Release(a)

	// Same core again: no bounce.
	a2 := &fakeCtx{now: 10, core: 0}
	l.Acquire(a2)
	if a2.now != 10 {
		t.Errorf("same-core reacquire charged %v", a2.now-10)
	}
	l.Release(a2)

	// Different core: bounce penalty charged while holding.
	b := &fakeCtx{now: 20, core: 1}
	l.Acquire(b)
	if b.now != 60 {
		t.Errorf("cross-core acquire time = %v, want 60 (20+40)", b.now)
	}
	l.Release(b)
	if got := l.Stats().Bounces; got != 1 {
		t.Errorf("Bounces = %d, want 1", got)
	}
}

func TestRecursiveAcquirePanics(t *testing.T) {
	l := New("test", 0)
	c := &fakeCtx{}
	//fsvet:ignore lockorder intentional unreleased acquire; the test ends in a panic
	l.Acquire(c)
	defer func() {
		if recover() == nil {
			t.Error("recursive acquire did not panic")
		}
	}()
	//fsvet:ignore lockorder deliberate recursive acquire to assert the panic
	l.Acquire(c)
}

func TestReleaseByNonHolderPanics(t *testing.T) {
	l := New("test", 0)
	a := &fakeCtx{core: 0}
	b := &fakeCtx{core: 1}
	//fsvet:ignore lockorder intentionally left held; the mismatched Release panics
	l.Acquire(a)
	defer func() {
		if recover() == nil {
			t.Error("release by non-holder did not panic")
		}
	}()
	l.Release(b)
}

func TestTryAcquire(t *testing.T) {
	l := New("test", 0)
	a := &fakeCtx{now: 0, core: 0}
	l.Acquire(a)
	a.Charge(100)
	l.Release(a)

	// Inside the busy interval [0, 100]: fails without spinning.
	b := &fakeCtx{now: 50, core: 1}
	//fsvet:ignore lockorder success is the failure case here and fails the test
	if l.TryAcquire(b) {
		t.Error("TryAcquire succeeded while lock held")
	}
	if b.now != 50 {
		t.Errorf("failed TryAcquire advanced time to %v", b.now)
	}
	// After the busy interval: succeeds.
	c := &fakeCtx{now: 150, core: 1}
	if !l.TryAcquire(c) {
		t.Error("TryAcquire failed on free lock")
	}
	l.Release(c)
}

func TestWith(t *testing.T) {
	l := New("test", 0)
	c := &fakeCtx{now: 5}
	ran := false
	l.With(c, func() {
		ran = true
		c.Charge(10)
	})
	if !ran {
		t.Fatal("With did not run fn")
	}
	if l.Stats().HoldTime != 10 {
		t.Errorf("HoldTime = %v, want 10", l.Stats().HoldTime)
	}
}

func TestStatsSubAndReset(t *testing.T) {
	l := New("test", 0)
	c := &fakeCtx{}
	l.With(c, func() { c.Charge(5) })
	before := l.Stats()
	l.With(c, func() { c.Charge(7) })
	d := l.Stats().Sub(before)
	if d.Acquisitions != 1 || d.HoldTime != 7 {
		t.Errorf("delta = %+v, want 1 acquisition / 7 hold", d)
	}
	l.ResetStats()
	if l.Stats() != (Stats{}) {
		t.Errorf("ResetStats left %+v", l.Stats())
	}
}

func TestShardedDistributesContention(t *testing.T) {
	s := NewSharded("ehash", 4, 0)
	// Different keys map to different shards at least sometimes.
	seen := map[*SpinLock]bool{}
	for k := uint64(0); k < 16; k++ {
		seen[s.Shard(k)] = true
	}
	if len(seen) != 4 {
		t.Errorf("16 sequential keys hit %d shards, want 4", len(seen))
	}
	// Aggregate stats sum across shards.
	c := &fakeCtx{}
	for k := uint64(0); k < 8; k++ {
		l := s.Shard(k)
		l.Acquire(c)
		l.Release(c)
	}
	if got := s.Stats().Acquisitions; got != 8 {
		t.Errorf("aggregate Acquisitions = %d, want 8", got)
	}
	s.ResetStats()
	if s.Stats().Acquisitions != 0 {
		t.Error("ResetStats did not clear shard counters")
	}
}

func TestShardedBadCountPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewSharded(3) did not panic")
		}
	}()
	NewSharded("x", 3, 0)
}

func TestSerializationBound(t *testing.T) {
	// N contexts hammering one lock serialize: the last release time
	// is at least N * hold.
	l := New("hot", 0)
	const hold = 100
	const n = 16
	var last sim.Time
	for i := 0; i < n; i++ {
		c := &fakeCtx{now: 0, core: i}
		l.Acquire(c)
		c.Charge(hold)
		l.Release(c)
		last = c.now
	}
	if last < n*hold {
		t.Errorf("final release at %v, want >= %v", last, sim.Time(n*hold))
	}
	if got := l.Stats().Contended; got != n-1 {
		t.Errorf("Contended = %d, want %d", got, n-1)
	}
}

func TestTimelineIntervalsDisjointProperty(t *testing.T) {
	// Property: after any sequence of acquisitions at arbitrary
	// virtual times with arbitrary hold durations, the lock's live
	// busy timeline remains sorted and non-overlapping — the invariant
	// that makes serialization sound. Every four consecutive ops land
	// out of order in one dense 1 µs window, so they contend; the
	// windows sit a millisecond apart, so the run spans several prune
	// horizons and prune cuts the timeline along the way.
	cases, contended, cut := 0, 0, 0
	f := func(ops []uint16) bool {
		l := New("prop", 0)
		pruned := false
		for i, op := range ops {
			at := sim.Time(i/4)*sim.Millisecond + sim.Time(op%1024)
			hold := sim.Time(op%97) + 1
			c := &fakeCtx{now: at, core: i % 8}
			l.Acquire(c)
			pruned = pruned || l.head > 0 // Release may reclaim it
			c.Charge(hold)
			l.Release(c)
			live := l.intervals[l.head:]
			for j := 1; j < len(live); j++ {
				if live[j].start <= live[j-1].end {
					return false // unsorted, overlapping or touching
				}
			}
		}
		cases++
		if l.Stats().Contended > 0 {
			contended++
		}
		if pruned {
			cut++
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
	// Both paths must fire in most cases, or the property is vacuous.
	if contended*2 < cases || cut*2 < cases {
		t.Errorf("of %d cases, %d contended and %d pruned; want a majority of each",
			cases, contended, cut)
	}
}

// refTimeline is the original linear busy-interval timeline: slotAt
// scans from the start, prune memmoves the survivors down, and insert
// re-merges the whole slice. It is the oracle for SpinLock's
// binary-searched version.
type refTimeline struct {
	intervals []interval
	avgHold   sim.Time
}

func (r *refTimeline) slotAt(ta sim.Time) sim.Time {
	need := r.avgHold
	if need <= 0 {
		need = 1
	}
	t := ta
	for _, iv := range r.intervals {
		if iv.end <= t {
			continue
		}
		if iv.start <= t {
			t = iv.end
			continue
		}
		if iv.start-t >= need {
			break
		}
		t = iv.end
	}
	return t
}

func (r *refTimeline) prune(ta sim.Time) {
	cut := 0
	for cut < len(r.intervals) && r.intervals[cut].end < ta-PruneHorizon {
		cut++
	}
	if cut > 0 {
		r.intervals = append(r.intervals[:0], r.intervals[cut:]...)
	}
}

func (r *refTimeline) insert(start, end sim.Time) {
	i := len(r.intervals)
	for i > 0 && r.intervals[i-1].start > start {
		i--
	}
	r.intervals = append(r.intervals, interval{})
	copy(r.intervals[i+1:], r.intervals[i:])
	r.intervals[i] = interval{start, end}
	out := r.intervals[:0]
	for _, iv := range r.intervals {
		if n := len(out); n > 0 && iv.start <= out[n-1].end {
			if iv.end > out[n-1].end {
				out[n-1].end = iv.end
			}
			continue
		}
		out = append(out, iv)
	}
	r.intervals = out
}

func TestTimelineMatchesLinearReference(t *testing.T) {
	// Property: on seeded random mixes of prune, slotAt and insert —
	// out-of-order acquirers up to 50 µs behind the clock, holds in
	// [0, 400) ns, over more than ten prune horizons — the
	// binary-searched timeline gives the same slotAt answers as the
	// linear original and holds exactly the same live intervals after
	// every step.
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		l := New("equiv", 0)
		var ref refTimeline
		var now sim.Time
		cuts, reclaims, grows := 0, 0, 0
		for step := 0; now < 12*PruneHorizon; step++ {
			now += sim.Time(rng.Intn(1500))
			ta := now - sim.Time(rng.Intn(50_000))
			hold := sim.Time(rng.Intn(400))
			l.avgHold, ref.avgHold = hold, hold
			switch op := rng.Intn(10); {
			case op < 3:
				head := l.head
				l.prune(ta)
				ref.prune(ta)
				if l.head > head {
					cuts++
				}
			case op < 5:
				if got, want := l.slotAt(ta), ref.slotAt(ta); got != want {
					t.Fatalf("seed %d step %d: slotAt(%v) = %v, want %v", seed, step, ta, got, want)
				}
			default:
				start := ta
				if op < 8 {
					start = ref.slotAt(ta) // a granted acquisition
				}
				head, capBefore := l.head, cap(l.intervals)
				l.insert(start, start+hold)
				ref.insert(start, start+hold)
				if head > 0 && l.head == 0 {
					reclaims++
				}
				if cap(l.intervals) > capBefore {
					grows++
				}
			}
			if !slices.Equal(l.intervals[l.head:], ref.intervals) {
				t.Fatalf("seed %d step %d: live timeline diverged:\n got %v\nwant %v",
					seed, step, l.intervals[l.head:], ref.intervals)
			}
		}
		if cuts == 0 || reclaims == 0 || grows == 0 {
			t.Errorf("seed %d: cutting prunes %d, reclaims %d, grows %d; want all nonzero",
				seed, cuts, reclaims, grows)
		}
	}
}

func TestEarlyAcquirerUsesGap(t *testing.T) {
	// A context whose virtual time precedes the latest reservation
	// acquires without waiting when a real gap existed there — the
	// event-order fairness rule.
	l := New("gap", 0)
	late := &fakeCtx{now: 1000, core: 0}
	l.Acquire(late)
	late.Charge(100)
	l.Release(late) // busy [1000, 1100]

	early := &fakeCtx{now: 200, core: 1}
	l.Acquire(early)
	if early.spin != 0 {
		t.Errorf("early acquirer spun %v against a future reservation", early.spin)
	}
	early.Charge(50)
	l.Release(early) // busy [200, 250] + [1000, 1100]

	// A third acquirer inside the early hold's window must wait.
	mid := &fakeCtx{now: 220, core: 2}
	l.Acquire(mid)
	if mid.now != 250 {
		t.Errorf("mid acquirer resumed at %v, want 250", mid.now)
	}
	l.Release(mid)
}

func TestSaturatedLockSerializes(t *testing.T) {
	// Offered demand > 1: the timeline must push completions out so
	// aggregate throughput through the lock is bounded by 1/hold.
	l := New("sat", 0)
	const hold = 100
	var maxEnd sim.Time
	// 64 acquirers all arriving within [0, 100): total demand 6400ns
	// over a 100ns window.
	for i := 0; i < 64; i++ {
		c := &fakeCtx{now: sim.Time(i), core: i % 8}
		l.Acquire(c)
		c.Charge(hold)
		l.Release(c)
		if c.now > maxEnd {
			maxEnd = c.now
		}
	}
	if maxEnd < 64*hold {
		t.Errorf("64 x %dns holds finished by %v — lock did not serialize", hold, maxEnd)
	}
}

func BenchmarkSpinLockTimeline(b *testing.B) {
	// 8 fake cores take turns around a clock that advances 5 µs per
	// acquisition, each acquirer up to 20 µs ahead of or behind it, so
	// the live timeline holds a few hundred intervals
	// (PruneHorizon / 5 µs) and releases land out of order.
	l := New("bench", 0)
	var cores [8]fakeCtx
	for i := range cores {
		cores[i].core = i
	}
	var clock sim.Time
	x := uint64(1)
	step := func() {
		x ^= x << 13 // xorshift64
		x ^= x >> 7
		x ^= x << 17
		c := &cores[x%8]
		clock += 5 * sim.Microsecond
		c.now = clock + sim.Time(x>>8%40_000) - 20*sim.Microsecond
		l.Acquire(c)
		c.Charge(100 + sim.Time(x>>32%200))
		l.Release(c)
	}
	for i := 0; i < 10_000; i++ {
		step() // reach steady-state timeline length and capacity
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
	}
	b.ReportMetric(float64(len(l.intervals)-l.head), "live-intervals")
}
