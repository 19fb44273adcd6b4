package corpus

// Stale carries a waiver whose finding was fixed.
func Stale() int {
	//fsvet:ignore determinism corpus: the map loop below was removed // want "stale //fsvet:ignore determinism directive"
	return 0
}
