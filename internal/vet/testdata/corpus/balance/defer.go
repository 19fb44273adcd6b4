package corpus

import "fastsocket/internal/lock"

// DeferRelease's deferred Release covers every return path.
func DeferRelease(l *lock.SpinLock, c lock.Context, bad bool) int {
	l.Acquire(c)
	defer l.Release(c)
	if bad {
		return -1
	}
	return 0
}
