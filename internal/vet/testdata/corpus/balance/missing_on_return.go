package corpus

import "fastsocket/internal/lock"

func MissingOnOneReturnPath(l *lock.SpinLock, c lock.Context, bad bool) int {
	l.Acquire(c) // want "lock l\(c\) is not released on a return path \(return at line 8\)"
	if bad {
		return -1
	}
	l.Release(c)
	return 0
}
