package unrestricted

import "fastsocket/internal/lock"

func leakInTest(l *lock.SpinLock, c lock.Context) {
	l.Acquire(c) // want "lock l\(c\) is still held when the function ends"
}

func work() {}
