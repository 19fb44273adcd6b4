// Golden corpus for the determinism pass. Loaded by the vet tests
// under a synthetic restricted import path; never built normally.
package corpus

// Registry hides a map behind a named type: only the type checker can
// see that ranging over it is map iteration.
type Registry map[string]int

func Spawn(fn func()) {
	go fn() // want "goroutines are forbidden"
}

func UseChannel(c chan int) { // want "channel types are forbidden"
	c <- 1 // want "channel sends are forbidden"
	<-c    // want "channel receives are forbidden"
}

func Wait(c chan int) { // want "channel types are forbidden"
	select { // want "select statements are forbidden"
	case <-c: // want "channel receives are forbidden"
	}
}
