package lock

import (
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

	// Before freeAt: fails without spinning.
	b := &fakeCtx{now: 50, core: 1}
	//fsvet:ignore lockorder success is the failure case here and fails the test
	if l.TryAcquire(b) {
		t.Error("TryAcquire succeeded while lock held")
	}
	if b.now != 50 {
		t.Errorf("failed TryAcquire advanced time to %v", b.now)
	}
	// After freeAt: succeeds.
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
	// virtual times with arbitrary hold durations, the lock's busy
	// timeline remains sorted and non-overlapping — the invariant
	// that makes serialization sound.
	f := func(ops []uint16) bool {
		l := New("prop", 0)
		for i, op := range ops {
			at := sim.Time(op % 4096)
			hold := sim.Time(op%97) + 1
			c := &fakeCtx{now: at, core: i % 8}
			l.Acquire(c)
			c.Charge(hold)
			l.Release(c)
			for j := 1; j < len(l.intervals); j++ {
				prev, cur := l.intervals[j-1], l.intervals[j]
				if cur.start < prev.end {
					return false // overlap
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
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
