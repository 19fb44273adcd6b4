package corpus

import "fastsocket/internal/lock"

func ReleaseInBothBranches(l *lock.SpinLock, c lock.Context, bad bool) int {
	l.Acquire(c)
	if bad {
		l.Release(c)
		return -1
	}
	l.Release(c)
	return 0
}
