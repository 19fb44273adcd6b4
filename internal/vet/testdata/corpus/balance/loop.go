package corpus

import "fastsocket/internal/lock"

func AcquireInLoop(l *lock.SpinLock, c lock.Context, n int) {
	for i := 0; i < n; i++ {
		l.Acquire(c) // want "lock l\(c\) acquired inside a loop is not released before the next iteration"
		work()
	}
}
