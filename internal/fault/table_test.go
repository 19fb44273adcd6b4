package fault

import (
	"testing"

	"fastsocket/internal/sim"
)

// TestTableMatchesMap drives the open-addressed table and a Go map
// through the same seeded mix of inserts, updates, deletes and
// lookups. Half the keys are plain small integers; the other half all
// share the table's last home slot, so their probe run wraps around
// the slot array and is cut again and again by backward-shift
// deletions.
func TestTableMatchesMap(t *testing.T) {
	// inv is the multiplicative inverse of the home multiplier, so
	// tail(j)·multiplier = 0xfff<<52 + j: the top 12 bits, and so the
	// home slot of any table up to 4096 slots, are all ones.
	inv := uint64(0x9e3779b97f4a7c15)
	for i := 0; i < 5; i++ {
		inv *= 2 - 0x9e3779b97f4a7c15*inv
	}
	tail := func(j uint64) uint64 { return (0xfff<<52 + j) * inv }
	rng := sim.NewRand(5)
	var tb table
	ref := map[uint64]uint64{}
	for op := 0; op < 200000; op++ {
		key := uint64(rng.Intn(3000))
		if key%2 == 1 {
			key = tail(key)
		}
		switch r := rng.Intn(10); {
		case r < 5:
			val := rng.Uint64() | 1
			tb.ref(key, 0).val = val
			ref[key] = val
		case r < 8:
			tb.del(key, 0)
			delete(ref, key)
		default:
			if got, want := tb.get(key, 0), ref[key]; got != want {
				t.Fatalf("op %d: get(%#x) = %#x, want %#x", op, key, got, want)
			}
		}
		if tb.n != len(ref) {
			t.Fatalf("op %d: table holds %d keys, map %d", op, tb.n, len(ref))
		}
	}
	for key, want := range ref {
		if got := tb.get(key, 0); got != want {
			t.Fatalf("final get(%#x) = %#x, want %#x", key, got, want)
		}
	}
	last := uint64(len(tb.slots) - 1)
	if tb.home(tail(1)) != last || tb.home(tail(2999)) != last {
		t.Fatalf("tail keys home at %d and %d, want the last slot %d", tb.home(tail(1)), tb.home(tail(2999)), last)
	}
	if len(tb.slots) > 8192 {
		t.Fatalf("table grew to %d slots for at most 3000 live keys", len(tb.slots))
	}
}

// TestTableOwnersAndRetirement: one key under different owners is
// distinct entries, and entries the live predicate rejects vanish at
// the next rebuild, leaving the rest intact and the table unresized.
func TestTableOwnersAndRetirement(t *testing.T) {
	dead := map[uint64]bool{}
	tb := table{live: func(s *slot) bool { return !dead[s.owner] }}
	const owners, keys = 8, 40
	for o := uint64(1); o <= owners; o++ {
		for k := uint64(0); k < keys; k++ {
			tb.ref(k, o).val = o*1000 + k
		}
	}
	size := len(tb.slots)
	for o := uint64(1); o <= owners; o += 2 {
		dead[o] = true
		tb.dead += keys
	}
	for n := uint64(0); ; n++ { // fill until a rebuild drops the dead
		before := tb.n
		tb.ref(1<<40+n, 0).val = 1
		if tb.n != before+1 {
			break
		}
	}
	if len(tb.slots) != size {
		t.Fatalf("table resized %d -> %d slots instead of reclaiming retired entries", size, len(tb.slots))
	}
	for o := uint64(1); o <= owners; o++ {
		for k := uint64(0); k < keys; k++ {
			want := o*1000 + k
			if dead[o] {
				want = 0
			}
			if got := tb.get(k, o); got != want {
				t.Fatalf("get(%d, owner %d) = %d, want %d", k, o, got, want)
			}
		}
	}
}
