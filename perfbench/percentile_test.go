package main

import (
	"testing"

	"fastsocket/internal/sim"
	"fastsocket/internal/stats"
)

func TestBucketWidth(t *testing.T) {
	for _, c := range []struct{ low, want sim.Time }{
		{0, sim.Microsecond},
		{10 * sim.Microsecond, sim.Microsecond},
		{64 * sim.Microsecond, 4 * sim.Microsecond},
		{1024 * sim.Microsecond, 64 * sim.Microsecond},
		{1216 * sim.Microsecond, 64 * sim.Microsecond},
	} {
		if got := bucketWidth(c.low); got != c.want {
			t.Errorf("bucketWidth(%v) = %v, want %v", c.low, got, c.want)
		}
	}
}

func TestPercentileInterpolates(t *testing.T) {
	h := stats.NewHistogram()
	// 100 samples in the [1024, 1088) µs bucket, 100 in [2048, 2176).
	for i := 0; i < 100; i++ {
		h.Add(1030 * sim.Microsecond)
		h.Add(2050 * sim.Microsecond)
	}
	// Rank 50 of 200 lies half way through the first bucket's 100
	// samples (1024 + 0.5·64), rank 150 half way through the second's.
	if got := percentile(h, 25); got != 1056 {
		t.Errorf("p25 = %v, want 1056", got)
	}
	if got := percentile(h, 75); got != 2048+0.5*128 {
		t.Errorf("p75 = %v, want %v", got, 2048+0.5*128)
	}
	if got := percentile(stats.NewHistogram(), 50); got != 0 {
		t.Errorf("empty p50 = %v", got)
	}
}
