package corpus

import "fastsocket/internal/lock"

func submit(fn func()) { fn() }

// FuncLit is balanced itself; the literal it hands off is checked on
// its own and leaks.
func FuncLit(l *lock.SpinLock, c lock.Context) {
	submit(func() {
		l.Acquire(c) // want "lock l\(c\) is still held when the function ends"
	})
}
