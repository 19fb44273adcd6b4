package corpus

import "fastsocket/internal/lock"

func MissingRelease(l *lock.SpinLock, c lock.Context) {
	l.Acquire(c) // want "lock l\(c\) is still held when the function ends: missing Release"
	work()
}
