package corpus

// RangeWaived is suppressed by a well-formed fsvet directive on the
// line above the finding.
func RangeWaived(r Registry) int {
	n := 0
	//fsvet:ignore determinism corpus: order-insensitive count
	for range r {
		n++
	}
	return n
}
