// Direct forbidden imports in a restricted package. No function here
// reaches them, so the reach pass is silent; the imports themselves
// are the findings.
package corpus

import (
	"math/rand"   // want "import \"math/rand\" is forbidden in deterministic simulation packages"
	"sync"        // want "import \"sync\" is forbidden in deterministic simulation packages"
	"sync/atomic" // want "import \"sync/atomic\" is forbidden in deterministic simulation packages"
	"time"        // want "import \"time\" is forbidden in deterministic simulation packages"
)

var (
	mu      sync.Mutex
	counter atomic.Int64
	clock   = time.Now
	draw    = rand.Int
)
