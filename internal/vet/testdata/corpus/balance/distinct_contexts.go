package corpus

import "fastsocket/internal/lock"

// DistinctContexts takes one lock under two contexts: each is its own
// acquisition and each is released.
func DistinctContexts(l *lock.SpinLock, a, b lock.Context) {
	l.Acquire(a)
	l.Acquire(b)
	l.Release(a)
	l.Release(b)
}
