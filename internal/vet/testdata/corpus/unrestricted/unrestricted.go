// Golden corpus: an unrestricted module package (outside internal/).
// The restricted-package rules do not apply, so nothing in its
// non-test files is a finding; its test files are still held to lock
// balance.
package unrestricted

import "time"

// Contention returns a map; restricted callers that range over it are
// flagged in determinism/maprange_funcresult.go.
func Contention() map[string]uint64 { return nil }

func Stamp() int64 { return time.Now().UnixNano() }

func Sum(m map[string]int) int {
	total := 0
	for _, v := range m {
		total += v
	}
	return total
}
