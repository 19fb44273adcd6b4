package corpus

import "fastsocket/internal/sim"

func Waived() sim.Time {
	//fsvet:ignore units corpus: calibrated raw nanosecond value
	return Wait(123456)
}
