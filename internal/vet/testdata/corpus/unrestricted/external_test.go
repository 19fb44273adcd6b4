package unrestricted_test

import (
	"fastsocket/internal/lock"
	"fastsocket/vetcorpus/unrestricted"
)

func returnInExternalTest(l *lock.SpinLock, c lock.Context, bad bool) int {
	l.Acquire(c) // want "lock l\(c\) is not released on a return path"
	if bad {
		return -1
	}
	l.Release(c)
	return unrestricted.Sum(nil)
}
