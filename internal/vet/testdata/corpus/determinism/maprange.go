// Map iteration in a restricted package: flagged wherever the ranged
// value's type is a map, however it got there (see the other
// maprange_*.go files), unless the loop only collects into a slice
// that is sorted afterwards.
package corpus

func RangeMapParam(m map[string]int) int {
	total := 0
	for _, v := range m { // want "iteration over map m"
		total += v
	}
	return total
}

func RangeNamedMap(r Registry) int {
	total := 0
	for _, v := range r { // want "iteration over map r"
		total += v
	}
	return total
}

// RangeSlice must not be flagged: same shape as a map range, but the
// type checker knows it is a slice.
func RangeSlice(xs []int) int {
	total := 0
	for _, v := range xs {
		total += v
	}
	return total
}
