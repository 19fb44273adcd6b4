// Golden corpus for the lockorder pass's lock-balance check, under a
// synthetic restricted import path. Each file holds one shape: the
// balanced ones the check must accept, the rest one unbalanced shape.
package corpus

import "fastsocket/internal/lock"

func work() {}

func Balanced(l *lock.SpinLock, c lock.Context) {
	l.Acquire(c)
	work()
	l.Release(c)
}
