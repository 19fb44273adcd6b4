package fault

// table is an open-addressed hash table from a (key, owner) pair to a
// non-zero uint64 value: linear probing over one flat slot array, with
// backward-shift deletion, so no tombstones build up. Short flows
// insert entries at segment rate and retire them at connection rate;
// owners retire entries in bulk through the live predicate instead of
// deleting them one by one: a rebuild, due whenever the table reaches
// 3/4 full, drops every entry live rejects, so the table stays sized
// by the live entries however long the run. Callers only ever index
// the slot array, and its layout never reaches a result.
type table struct {
	slots []slot
	spare []slot // the previous slot array, reused by a rebuild of the same size
	shift uint   // 64 - log2(len(slots))
	n     int    // occupied slots, retired entries included
	// dead counts the occupied slots whose entries the owner has
	// retired; the owner adds to it, a rebuild clears it.
	dead int
	// live reports whether an entry is still wanted (nil: all are).
	live func(*slot) bool
}

type slot struct {
	key, owner uint64
	val        uint64 // 0 marks an empty slot
}

const minTableSlots = 256

// home is key's preferred slot (Fibonacci hashing: the multiply
// spreads the structured low bits of decision keys and tuple hashes
// over the table).
func (t *table) home(key uint64) uint64 { return key * 0x9e3779b97f4a7c15 >> t.shift }

// get returns the value of (key, owner), 0 when absent.
func (t *table) get(key, owner uint64) uint64 {
	if t.n == 0 {
		return 0
	}
	mask := uint64(len(t.slots) - 1)
	for i := t.home(key); ; i = (i + 1) & mask {
		s := &t.slots[i]
		if s.val == 0 || s.key == key && s.owner == owner {
			return s.val
		}
	}
}

// ref returns the slot of (key, owner), claiming an empty one (val 0)
// when absent; the caller stores a non-zero val in a claimed slot
// before the next table operation.
func (t *table) ref(key, owner uint64) *slot {
	if 4*(t.n+1) > 3*len(t.slots) {
		t.rebuild()
	}
	mask := uint64(len(t.slots) - 1)
	for i := t.home(key); ; i = (i + 1) & mask {
		s := &t.slots[i]
		if s.val == 0 {
			s.key, s.owner = key, owner
			t.n++
			return s
		}
		if s.key == key && s.owner == owner {
			return s
		}
	}
}

// del removes (key, owner) if present, shifting later members of its
// probe run back so no lookup ever crosses a hole.
func (t *table) del(key, owner uint64) {
	if t.n == 0 {
		return
	}
	mask := uint64(len(t.slots) - 1)
	i := t.home(key)
	for {
		s := &t.slots[i]
		if s.val == 0 {
			return
		}
		if s.key == key && s.owner == owner {
			break
		}
		i = (i + 1) & mask
	}
	t.n--
	for j := i; ; {
		t.slots[i] = slot{}
		for {
			j = (j + 1) & mask
			if t.slots[j].val == 0 {
				return
			}
			// Slot j stays unless its home lies cyclically outside
			// (i, j], i.e. the hole at i is on its probe path.
			h := t.home(t.slots[j].key)
			if (i < j && (h <= i || h > j)) || (i > j && h <= i && h > j) {
				break
			}
		}
		t.slots[i] = t.slots[j]
		i = j
	}
}

// rebuild re-inserts the live entries into a slot array at most half
// full after them, doubling when they need it (first use allocates
// minTableSlots). The array it replaces becomes the spare, so a
// steady live population rebuilds without allocating.
func (t *table) rebuild() {
	size := max(len(t.slots), minTableSlots)
	for 2*(t.n-t.dead+1) > size {
		size *= 2
	}
	old := t.slots
	if len(t.spare) == size {
		t.slots = t.spare
		clear(t.slots)
	} else {
		t.slots = make([]slot, size)
	}
	t.spare = old
	t.shift = 64
	for s := size; s > 1; s >>= 1 {
		t.shift--
	}
	t.n, t.dead = 0, 0
	mask := uint64(size - 1)
	for k := range old {
		if old[k].val == 0 || t.live != nil && !t.live(&old[k]) {
			continue
		}
		i := t.home(old[k].key)
		for t.slots[i].val != 0 {
			i = (i + 1) & mask
		}
		t.slots[i] = old[k]
		t.n++
	}
}
