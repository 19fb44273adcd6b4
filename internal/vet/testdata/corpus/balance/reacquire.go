package corpus

import "fastsocket/internal/lock"

func Reacquire(l *lock.SpinLock, c lock.Context) {
	l.Acquire(c)
	l.Acquire(c) // want "lock l\(c\) acquired again while already held \(first acquired at line 6\)"
	l.Release(c)
	l.Release(c)
}
