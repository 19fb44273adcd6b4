package corpus

import "fastsocket/internal/sim"

// Test files are outside the determinism and units rules: nothing
// here is a finding.
func rangeInTest(r Registry) int {
	n := 0
	for _, v := range r {
		n += v
	}
	go func() {}()
	return n
}

func bareTimeInTest() sim.Time { return sim.Time(250000) }
