package corpus

// RangeRetiredWaiver carries a waiver in a retired, non-fsvet syntax:
// it suppresses nothing, so both the range and the directive are
// reported.
func RangeRetiredWaiver(r Registry) int {
	n := 0
	//fslint:ignore determinism corpus: order-insensitive count // want "//fslint:ignore is not an fsvet directive and suppresses nothing"
	for range r { // want "iteration over map r"
		n++
	}
	return n
}

//fsvet:ignore nosuchpass testing // want "unknown pass \"nosuchpass\""

// The next directive names a real pass but gives no reason; the test
// body asserts the "needs a reason" finding directly (a want comment
// here would become part of the directive itself).
//fsvet:ignore units
