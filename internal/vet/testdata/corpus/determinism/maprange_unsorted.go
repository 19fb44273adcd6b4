package corpus

func RangeCollectUnsorted(r Registry) []string {
	var keys []string
	for k := range r { // want "iteration over map r"
		keys = append(keys, k)
	}
	return keys
}
