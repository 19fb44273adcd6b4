package corpus

import "fastsocket/vetcorpus/unrestricted"

// RangeFuncResult ranges over a map returned from another package,
// directly and through a local.
func RangeFuncResult() {
	for range unrestricted.Contention() { // want "iteration over map unrestricted.Contention\(\)"
	}
	m := unrestricted.Contention()
	for range m { // want "iteration over map m"
	}
}
