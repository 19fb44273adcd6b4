package kernel

import (
	"fmt"
	"sort"
	"strings"

	"fastsocket/internal/lock"
	"fastsocket/internal/tcp"
)

// LockRow is one line of the lockstat report (Table 1's rows).
type LockRow struct {
	Name string
	lock.Stats
}

// LockNames are the locks Table 1 reports, in the paper's order.
var LockNames = []string{
	"dcache_lock", "inode_lock", "slock", "ep.lock", "base.lock", "ehash.lock",
}

// slockLive sums the slock stats of every live socket (established,
// TIME_WAIT, listeners and clones); destroyed sockets were already
// accumulated into slockAgg.
func (k *Kernel) slockLive() lock.Stats {
	var s lock.Stats
	// Summing counters is commutative, so the iteration order of
	// flowHome cannot reach the result.
	//fsvet:ignore determinism order-independent sum of lock counters
	for _, e := range k.flowHome {
		addLockStats(&s, e.sk.Slock.Stats())
	}
	seen := map[*tcp.Sock]bool{}
	for _, lsk := range k.allListeners {
		if !seen[lsk] {
			seen[lsk] = true
			addLockStats(&s, lsk.Slock.Stats())
		}
		lex := ext(lsk).listen
		if lex == nil {
			continue
		}
		for _, core := range sortedKeys(lex.clones) {
			clone := lex.clones[core]
			if !seen[clone] {
				seen[clone] = true
				addLockStats(&s, clone.Slock.Stats())
			}
		}
	}
	return s
}

// sortedKeys returns a clone map's core ids in ascending order, so
// aggregation walks the map deterministically.
func sortedKeys(m map[int]*tcp.Sock) []int {
	keys := make([]int, 0, len(m))
	for core := range m {
		keys = append(keys, core)
	}
	sort.Ints(keys)
	return keys
}

// LockStats returns the lockstat table for this kernel.
func (k *Kernel) LockStats() []LockRow {
	slock := k.slockAgg
	addLockStats(&slock, k.slockLive())

	var ep lock.Stats
	for _, p := range k.procs {
		addLockStats(&ep, p.Ep.Lock.Stats())
	}
	var base lock.Stats
	for _, w := range k.wheels {
		addLockStats(&base, w.Lock.Stats())
	}
	return []LockRow{
		{Name: "dcache_lock", Stats: k.vfsl.DcacheStats()},
		{Name: "inode_lock", Stats: k.vfsl.InodeStats()},
		{Name: "slock", Stats: slock},
		{Name: "ep.lock", Stats: ep},
		{Name: "base.lock", Stats: base},
		{Name: "ehash.lock", Stats: k.ehashLocks.Stats()},
	}
}

// LockContention returns name -> contended count, for Table 1.
func (k *Kernel) LockContention() map[string]uint64 {
	m := map[string]uint64{}
	for _, row := range k.LockStats() {
		m[row.Name] = row.Contended
	}
	return m
}

// FormatLockStats renders a lockstat-like report.
func (k *Kernel) FormatLockStats() string {
	rows := k.LockStats()
	sort.Slice(rows, func(i, j int) bool { return rows[i].Contended > rows[j].Contended })
	var b strings.Builder
	fmt.Fprintf(&b, "%-14s %12s %12s %14s %14s %10s\n",
		"lock", "acquisitions", "contended", "waittime", "holdtime", "bounces")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-14s %12d %12d %14v %14v %10d\n",
			r.Name, r.Acquisitions, r.Contended, r.WaitTime, r.HoldTime, r.Bounces)
	}
	return b.String()
}
