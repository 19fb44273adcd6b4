// Golden corpus for the lockorder pass: held-set propagation, the
// With idiom, TryAcquire branches, a class-resolved leak (the
// lock-balance shapes have their own corpus), and an order inversion
// (the inversion finding attaches to the whole-graph pseudo-file and
// is asserted directly by the test, not via a want comment).
package corpus

import "fastsocket/internal/lock"

type Pair struct {
	A *lock.SpinLock
	B *lock.SpinLock
}

func NewPair() *Pair {
	return &Pair{
		A: lock.New("corpus.a", 0),
		B: lock.New("corpus.b", 0),
	}
}

// LockAB establishes the edge corpus.a -> corpus.b.
func LockAB(ctx lock.Context, p *Pair) {
	p.A.Acquire(ctx)
	lockBHeld(ctx, p)
	p.A.Release(ctx)
}

// lockBHeld acquires B; the edge is emitted at the call site in
// LockAB through the transitive-acquire summary.
func lockBHeld(ctx lock.Context, p *Pair) {
	p.B.Acquire(ctx)
	p.B.Release(ctx)
}

// LockBA inverts the order: corpus.b -> corpus.a closes a cycle with
// LockAB and must be reported as a potential inversion.
func LockBA(ctx lock.Context, p *Pair) {
	p.B.Acquire(ctx)
	p.A.Acquire(ctx)
	p.A.Release(ctx)
	p.B.Release(ctx)
}

// WithNested exercises the With closure: the body runs under A.
func WithNested(ctx lock.Context, p *Pair) {
	p.A.With(ctx, func() {
		p.B.Acquire(ctx)
		p.B.Release(ctx)
	})
}

// Leak can return with A held.
func Leak(ctx lock.Context, p *Pair, fail bool) bool {
	p.A.Acquire(ctx) // want "lock p.A\(ctx\) is not released on a return path"
	if fail {
		return false
	}
	p.A.Release(ctx)
	return true
}

// TryBranches releases on every path where the acquire succeeded.
func TryBranches(ctx lock.Context, p *Pair, n int) int {
	if !p.A.TryAcquire(ctx) {
		return 0
	}
	n *= 2
	p.A.Release(ctx)
	return n
}
