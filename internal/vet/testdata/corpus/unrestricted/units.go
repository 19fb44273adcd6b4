package unrestricted

import "fastsocket/internal/sim"

// Run passes a bare magnitude as sim.Time: units covers restricted
// non-test code only, so this is not a finding.
func Run(loop *sim.Loop) { loop.RunUntil(123456) }
