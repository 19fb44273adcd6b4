package unrestricted

// Lock balance runs on test files, so an unused lockorder waiver here
// is judged like any other and reported stale.
func staleInTest() {
	//fsvet:ignore lockorder corpus: nothing here takes a lock // want "stale //fsvet:ignore lockorder directive"
	work()
}
