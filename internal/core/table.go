package core

import (
	"hash/maphash"
	"math/bits"
	"slices"

	"partalloc/internal/task"
)

// taskTable maps active task IDs to their placements: open addressing
// with linear probing over a power-of-two array of slots, and
// backward-shift deletion, so churn leaves no tombstones behind. Like a
// Go map it is allocated on the first insert, doubles when an insert
// would take it past ¾ load, and never shrinks.
//
// An ID's home slot is the top bits of the ID times an odd multiplier
// (Dietzfelbinger's multiply-shift, a universal family), and the
// multiplier is a secret drawn from hash/maphash each time the slots are
// allocated. Task IDs come from callers; under a fixed multiplier a
// caller could pick IDs that share one home slot and make every probe
// walk the whole cluster. A per-table secret is the protection Go's
// per-map seed gives.
//
// Callers iterate the slots directly, skipping unused ones. Slot order
// differs between instances, as a Go map's order does, so the secret
// never reaches a decision or a snapshot byte: every ordered use sorts
// first, and the other uses (load-tree placement) commute.
type taskTable[V any] struct {
	slots []taskSlot[V]
	n     int    // used slots
	mul   uint64 // the secret: an odd multiplier
	shift uint   // 64 − log2(len(slots))
}

// taskSlot is one slot of a taskTable.
type taskSlot[V any] struct {
	id   task.ID
	val  V
	used bool
}

// minTableSlots is the slot count of the first allocation.
const minTableSlots = 8

// len returns the number of entries.
func (t *taskTable[V]) len() int { return t.n }

// home returns id's home slot; the table must have slots.
func (t *taskTable[V]) home(id task.ID) int {
	return int(uint64(id) * t.mul >> (t.shift & 63))
}

// find returns the slot holding id and true, or the empty slot that ends
// id's probe sequence and false, which is where insert puts id. Before the
// first insert it returns -1 and false.
func (t *taskTable[V]) find(id task.ID) (int, bool) {
	if len(t.slots) == 0 {
		return -1, false
	}
	mask := len(t.slots) - 1
	for i := t.home(id); ; i = (i + 1) & mask {
		if s := &t.slots[i]; !s.used || s.id == id {
			return i, s.used
		}
	}
}

// insert stores id → v in slot i, which find just returned for the
// absent id with the table unchanged since, and returns the slot id ends
// up in. It grows the table first if id would take it past ¾ load.
func (t *taskTable[V]) insert(i int, id task.ID, v V) int {
	if 4*(t.n+1) > 3*len(t.slots) {
		i = t.grow(id)
	}
	t.slots[i] = taskSlot[V]{id: id, val: v, used: true}
	t.n++
	return i
}

// grow doubles the slots, or allocates the first ones, under a fresh
// secret, and returns the slot where the absent id goes.
func (t *taskTable[V]) grow(id task.ID) int {
	t.rehash(max(2*len(t.slots), minTableSlots), maphash.String(maphash.MakeSeed(), ""))
	i, _ := t.find(id)
	return i
}

// add inserts id → v unless id is present, and reports whether it did.
func (t *taskTable[V]) add(id task.ID, v V) bool {
	i, dup := t.find(id)
	if !dup {
		t.insert(i, id, v)
	}
	return !dup
}

// get returns id's value; ok is false if id is absent.
func (t *taskTable[V]) get(id task.ID) (v V, ok bool) {
	if i, ok := t.find(id); ok {
		return t.slots[i].val, true
	}
	return v, false
}

// remove deletes id and returns its value; ok is false if id is absent.
func (t *taskTable[V]) remove(id task.ID) (v V, ok bool) {
	i, ok := t.find(id)
	if !ok {
		return v, false
	}
	v = t.slots[i].val
	// Backward shift: walk the rest of the cluster and move back into
	// the hole at i every entry whose home lies cyclically at or before
	// i, so each entry stays reachable from its home with no gap.
	mask := len(t.slots) - 1
	for j := (i + 1) & mask; t.slots[j].used; j = (j + 1) & mask {
		if (j-t.home(t.slots[j].id))&mask >= (j-i)&mask {
			t.slots[i] = t.slots[j]
			i = j
		}
	}
	t.slots[i] = taskSlot[V]{}
	t.n--
	return v, true
}

// rehash moves every entry into size fresh slots, size a power of two,
// hashed under secret.
func (t *taskTable[V]) rehash(size int, secret uint64) {
	old := t.slots
	t.slots = make([]taskSlot[V], size)
	t.mul = secret | 1
	t.shift = uint(64 - bits.TrailingZeros(uint(size)))
	mask := size - 1
	for _, s := range old {
		if !s.used {
			continue
		}
		i := t.home(s.id)
		for t.slots[i].used {
			i = (i + 1) & mask
		}
		t.slots[i] = s
	}
}

// sortedIDs returns the IDs in ascending order, the order every codec
// emits and rebuilds placements in.
func (t *taskTable[V]) sortedIDs() []task.ID {
	ids := make([]task.ID, 0, t.n)
	for i := range t.slots {
		if t.slots[i].used {
			ids = append(ids, t.slots[i].id)
		}
	}
	slices.Sort(ids)
	return ids
}

// slotTask is an active task and the slot that holds its placement. The
// passes that re-place tasks without arrivals or departures (A_R, FailPE)
// leave the table's shape alone, so they write each new placement
// through the slot they read the task from.
type slotTask struct {
	task.Task
	slot int
}
