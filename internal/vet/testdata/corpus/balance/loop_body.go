package corpus

import "fastsocket/internal/lock"

// BalancedLoopBody releases within each iteration, so nothing is
// carried across the back edge.
func BalancedLoopBody(l *lock.SpinLock, c lock.Context, n int) {
	for i := 0; i < n; i++ {
		l.Acquire(c)
		work()
		l.Release(c)
	}
}
