package corpus

import "fastsocket/internal/lock"

// TryGuarded releases inside the guarded branch.
func TryGuarded(l *lock.SpinLock, c lock.Context) {
	if l.TryAcquire(c) {
		work()
		l.Release(c)
	}
}

// TryBail holds the lock after the statement: the failed branch
// returns.
func TryBail(l *lock.SpinLock, c lock.Context) {
	if !l.TryAcquire(c) {
		return
	}
	work()
	l.Release(c)
}

// TryLeak falls out of the guarded branch still holding the lock.
func TryLeak(l *lock.SpinLock, c lock.Context) {
	if l.TryAcquire(c) { // want "lock l\(c\) from TryAcquire is not released inside the guarded branch"
		work()
	}
}

// TryValue keeps the TryAcquire result; the lock is released on the
// path where it was taken.
func TryValue(l *lock.SpinLock, c lock.Context) bool {
	ok := l.TryAcquire(c)
	if ok {
		work()
		l.Release(c)
	}
	return ok
}

// TryReturn hands the held lock to its caller without a waiver.
func TryReturn(l *lock.SpinLock, c lock.Context) bool {
	return l.TryAcquire(c) // want "lock l\(c\) is not released on a return path"
}
