package core

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"partalloc/internal/task"
)

// toMap copies the table's entries into a map.
func (t *taskTable[V]) toMap() map[task.ID]V {
	m := make(map[task.ID]V, t.n)
	for _, e := range t.slots {
		if e.used {
			m[e.id] = e.val
		}
	}
	return m
}

// probes returns how many slots a lookup of id reads: one more than its
// distance from its home slot. id must be present.
func (t *taskTable[V]) probes(id task.ID) int {
	i, _ := t.find(id)
	return (i-t.home(id))&(len(t.slots)-1) + 1
}

// tableOracle runs a taskTable[int] and a map[task.ID]int through the same
// operations, checking after each that they agree.
type tableOracle struct {
	t         testing.TB
	tab       taskTable[int]
	ref       map[task.ID]int
	next      int // value the next insert stores
	peakSlots int
}

func newTableOracle(t testing.TB) *tableOracle {
	return &tableOracle{t: t, ref: make(map[task.ID]int)}
}

// specialIDs are the extremes of task.ID's range.
var specialIDs = []task.ID{0, -1, math.MinInt64, math.MaxInt64}

// idFor maps an operand byte to a task ID: the four extremes, or one of
// the sequential IDs 1..252.
func idFor(b byte) task.ID {
	if int(b) < len(specialIDs) {
		return specialIDs[b]
	}
	return task.ID(b) - 3
}

// run interprets prog two bytes at a time: an operation, then its operand.
func (o *tableOracle) run(prog []byte) {
	for k := 0; k+1 < len(prog); k += 2 {
		op, arg := prog[k]%7, prog[k+1]
		switch op {
		case 0:
			o.insert(idFor(arg))
		case 1:
			o.duplicateOf(o.present(arg))
		case 2:
			o.lookup(idFor(arg))
		case 3:
			o.remove(idFor(arg))
		case 4:
			o.insert(o.clusterID(arg))
		case 5:
			o.iterate()
		case 6:
			o.remove(o.present(arg))
		}
		o.check(op, arg)
	}
}

// present returns the present ID arg picks in ascending order, or
// idFor(arg) if the table is empty.
func (o *tableOracle) present(arg byte) task.ID {
	ids := o.tab.sortedIDs()
	if len(ids) == 0 {
		return idFor(arg)
	}
	return ids[int(arg)%len(ids)]
}

func (o *tableOracle) insert(id task.ID) {
	if _, ok := o.ref[id]; ok {
		o.duplicateOf(id)
		return
	}
	if !o.tab.add(id, o.next) {
		o.t.Fatalf("add(%d) rejected an absent ID", id)
	}
	o.ref[id] = o.next
	o.next++
	o.peakSlots = max(o.peakSlots, len(o.tab.slots))
}

// duplicateOf inserts id again if it is present: the table must reject
// it and stay exactly as it was.
func (o *tableOracle) duplicateOf(id task.ID) {
	if _, ok := o.ref[id]; !ok {
		return
	}
	before, n := slices.Clone(o.tab.slots), o.tab.n
	if o.tab.add(id, -1) {
		o.t.Fatalf("add(%d) accepted a duplicate", id)
	}
	if !slices.Equal(before, o.tab.slots) || n != o.tab.n {
		o.t.Fatalf("rejected add(%d) changed the table", id)
	}
}

func (o *tableOracle) lookup(id task.ID) {
	want, wok := o.ref[id]
	if got, ok := o.tab.get(id); ok != wok || got != want {
		o.t.Fatalf("get(%d) = (%d, %v), map (%d, %v)", id, got, ok, want, wok)
	}
}

func (o *tableOracle) remove(id task.ID) {
	want, wok := o.ref[id]
	if got, ok := o.tab.remove(id); ok != wok || got != want {
		o.t.Fatalf("remove(%d) = (%d, %v), map (%d, %v)", id, got, ok, want, wok)
	}
	delete(o.ref, id)
}

// iterate walks the slots as the allocators do and checks each entry is
// the map's, once.
func (o *tableOracle) iterate() {
	seen := 0
	for _, e := range o.tab.slots {
		if !e.used {
			continue
		}
		if v, ok := o.ref[e.id]; !ok || v != e.val {
			o.t.Fatalf("slot holds %d → %d, map (%d, %v)", e.id, e.val, v, ok)
		}
		seen++
	}
	if seen != len(o.ref) {
		o.t.Fatalf("iteration saw %d entries, map holds %d", seen, len(o.ref))
	}
}

// clusterID returns an absent ID whose home slot is the last slot (even
// arg), so its cluster wraps past the end, or the home of a present ID
// (odd arg), so its cluster grows. Before the first insert it returns
// idFor(arg).
func (o *tableOracle) clusterID(arg byte) task.ID {
	if len(o.tab.slots) == 0 {
		return idFor(arg)
	}
	target := len(o.tab.slots) - 1
	if ids := o.tab.sortedIDs(); arg%2 == 1 && len(ids) > 0 {
		target = o.tab.home(ids[int(arg/2)%len(ids)])
	}
	for id := task.ID(1<<40) + task.ID(arg)<<20; ; id++ {
		if _, ok := o.ref[id]; !ok && o.tab.home(id) == target {
			return id
		}
	}
}

// check requires the table to hold exactly the map's entries, each found
// by a lookup from its home slot.
func (o *tableOracle) check(op, arg byte) {
	o.t.Helper()
	if o.tab.len() != len(o.ref) {
		o.t.Fatalf("after op %d(%d): len %d, map %d", op, arg, o.tab.len(), len(o.ref))
	}
	for id, want := range o.ref {
		if got, ok := o.tab.get(id); !ok || got != want {
			o.t.Fatalf("after op %d(%d): get(%d) = (%d, %v), map %d", op, arg, id, got, ok, want)
		}
	}
	o.iterate()
}

// tableProgram is a seed input for tableOracle.run and the slot count
// the table must reach while running it.
type tableProgram struct {
	name  string
	prog  []byte
	slots int
}

// tablePrograms are the seed inputs: every extreme ID, clusters at the
// wrap and mid-table, and growth from 8 to 256 slots (five doublings)
// with deletes interleaved.
func tablePrograms() []tableProgram {
	var extremes, clusters, growth []byte
	for b := byte(0); b < 4; b++ {
		extremes = append(extremes, 0, b, 1, b, 2, b, 5, 0)
	}
	for b := byte(0); b < 4; b++ {
		extremes = append(extremes, 3, b, 2, b)
	}
	// Grow to 64 slots and empty the table again, then build one
	// 40-entry cluster from the last slot, which wraps, and delete from
	// it in scattered order; then grow clusters mid-table.
	for b := byte(4); b < 34; b++ {
		clusters = append(clusters, 0, b)
	}
	for b := byte(4); b < 34; b++ {
		clusters = append(clusters, 3, b)
	}
	for k := byte(0); k < 40; k++ {
		clusters = append(clusters, 4, 2*k)
	}
	for k := byte(0); k < 20; k++ {
		clusters = append(clusters, 6, 7*k+3)
	}
	for k := byte(0); k < 10; k++ {
		clusters = append(clusters, 4, 2*k+1, 6, k, 5, 0)
	}
	for b := 4; b < 256; b++ {
		growth = append(growth, 0, byte(b))
		if b%3 == 0 {
			growth = append(growth, 3, byte(b-2), 4, byte(b))
		}
	}
	for b := 4; b < 256; b += 2 {
		growth = append(growth, 3, byte(b))
	}
	return []tableProgram{
		{"extremes", extremes, minTableSlots},
		{"clusters", clusters, minTableSlots << 3},
		{"growth", growth, minTableSlots << 5},
	}
}

// TestTaskTableMatchesMap runs the seed programs and random ones against
// a map.
func TestTaskTableMatchesMap(t *testing.T) {
	for _, p := range tablePrograms() {
		o := newTableOracle(t)
		o.run(p.prog)
		if o.peakSlots < p.slots {
			t.Fatalf("%s: peaked at %d slots, want ≥ %d", p.name, o.peakSlots, p.slots)
		}
	}
	rng := rand.New(rand.NewSource(1))
	for k := 0; k < 200; k++ {
		prog := make([]byte, 2*(50+rng.Intn(400)))
		rng.Read(prog)
		newTableOracle(t).run(prog)
	}
}

// TestTaskTableKeyedHash checks that each allocation draws its own
// secret, and that the secret is what places IDs: 64 IDs that share one
// home slot under one secret spread out under another.
func TestTaskTableKeyedHash(t *testing.T) {
	var a, b taskTable[int]
	a.add(1, 0)
	b.add(1, 0)
	if a.mul == b.mul {
		t.Fatalf("two tables drew the same secret %#x", a.mul)
	}
	drawn := a.mul
	for id := task.ID(2); len(a.slots) == minTableSlots; id++ {
		a.add(id, 0)
	}
	if a.mul == drawn {
		t.Fatalf("growth kept the secret %#x", drawn)
	}

	const size = 128
	secrets := [2]uint64{0x9e3779b97f4a7c15, 0xd1b54a32d192ed03}
	var first taskTable[int]
	first.rehash(size, secrets[0])
	var ids []task.ID
	for id := task.ID(1); len(ids) < 64; id++ {
		if first.home(id) == 0 {
			ids = append(ids, id)
		}
	}
	for k, secret := range secrets {
		var tab taskTable[int]
		tab.rehash(size, secret)
		for _, id := range ids {
			tab.add(id, 0)
		}
		if len(tab.slots) != size {
			t.Fatalf("secret %d: table grew to %d slots", k, len(tab.slots))
		}
		worst := 0
		for _, id := range ids {
			worst = max(worst, tab.probes(id))
		}
		switch {
		case k == 0 && worst != len(ids):
			t.Fatalf("first secret: worst lookup reads %d slots, want %d (one cluster)", worst, len(ids))
		case k == 1 && worst > 8:
			t.Fatalf("second secret: worst lookup reads %d slots, want ≤ 8", worst)
		}
	}
}

// FuzzTaskTable runs byte programs (see tableOracle.run) against a map.
func FuzzTaskTable(f *testing.F) {
	for _, p := range tablePrograms() {
		f.Add(p.prog)
	}
	f.Fuzz(func(t *testing.T, prog []byte) {
		newTableOracle(t).run(prog)
	})
}
