package corpus

import "fastsocket/internal/lock"

func OnBehalfOfCaller(l *lock.SpinLock, c lock.Context) {
	//fsvet:ignore lockorder corpus: acquires on behalf of the caller
	l.Acquire(c)
}
