package corpus

import "sort"

func RangeSortedCollect(r Registry) []string {
	var keys []string
	for k := range r { // allowed: append-only body, sorted after
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
