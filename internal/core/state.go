package core

import (
	"math/rand"
	"slices"

	"partalloc/internal/copies"
	"partalloc/internal/loadtree"
	"partalloc/internal/task"
	"partalloc/internal/tree"
)

// Every allocator keeps one of two state shapes, and each shape has one
// implementation of the bookkeeping; the allocators differ only in the
// rule that picks an arriving task's submachine.
//
//   - nodePlaced: one load tree and each task's node. A_G, A_Rand,
//     A_2choice and A_G-randtie (the seeded three through seeded).
//   - copyPlaced: an ordered list of copies of T, the load tree, each
//     task's copy and node, and the failed PEs. A_B, and A_M between
//     reallocations.

// nodePlaced is the state of the allocators that place each task straight
// on a node of the machine: the load tree and each task's node.
type nodePlaced struct {
	m      *tree.Machine
	name   string
	loads  *loadtree.Tree
	placed taskTable[tree.Node]
}

func newNodePlaced(m *tree.Machine, name string) nodePlaced {
	return nodePlaced{m: m, name: name, loads: loadtree.New(m)}
}

// Name implements Allocator.
func (s *nodePlaced) Name() string { return s.name }

// Machine implements Allocator.
func (s *nodePlaced) Machine() *tree.Machine { return s.m }

// admit panics unless t fits the machine and is not active already, and
// returns the slot that place stores t in.
func (s *nodePlaced) admit(t task.Task) int {
	checkArrival(s.m, t)
	i, dup := s.placed.find(t.ID)
	if dup {
		panicDuplicate(t.ID, s.name)
	}
	return i
}

// place puts task t on node v, in the slot admit returned for it.
func (s *nodePlaced) place(slot int, t task.Task, v tree.Node) {
	s.loads.Place(v)
	s.placed.insert(slot, t.ID, v)
}

// Depart implements Allocator.
func (s *nodePlaced) Depart(id task.ID) {
	v, ok := s.placed.remove(id)
	if !ok {
		panicUnknown(id, s.name)
	}
	s.loads.Remove(v)
}

// MaxLoad implements Allocator.
func (s *nodePlaced) MaxLoad() int { return s.loads.MaxLoad() }

// PELoads implements Allocator.
func (s *nodePlaced) PELoads() []int { return s.loads.Loads() }

// Placement implements Allocator.
func (s *nodePlaced) Placement(id task.ID) (tree.Node, bool) { return s.placed.get(id) }

// Active implements Allocator.
func (s *nodePlaced) Active() int { return s.placed.len() }

// seeded is node-placed state whose placement rule draws from a PRNG
// (A_Rand, A_2choice, A_G-randtie). The source is counted so a snapshot
// can record its position; tag names the algorithm in the snapshot.
type seeded struct {
	nodePlaced
	tag byte
	src *countingSource
	rng *rand.Rand
}

func newSeeded(m *tree.Machine, name string, tag byte, seed int64) seeded {
	src := newCountingSource(seed)
	return seeded{nodePlaced: newNodePlaced(m, name), tag: tag, src: src, rng: rand.New(src)}
}

// placementRec locates a task inside a copy list.
type placementRec struct {
	copyIdx int
	node    tree.Node
	size    int
}

// copyPlaced is the state of the allocators that place by first fit over
// an ordered list of copies of T: the list, the load tree, each task's
// copy and node, and the fault set. A_B keeps it for good; A_M keeps it
// between reallocations, which procedure A_R repacks in place.
type copyPlaced struct {
	m      *tree.Machine
	list   *copies.List
	loads  *loadtree.Tree
	placed taskTable[placementRec]
	faultSet
}

func newCopyPlaced(m *tree.Machine) copyPlaced {
	return copyPlaced{m: m, list: copies.NewList(m), loads: loadtree.New(m)}
}

// Machine implements Allocator.
func (s *copyPlaced) Machine() *tree.Machine { return s.m }

// put occupies the leftmost vacant submachine of the given size in the
// first copy that has one, creating a copy if none does (A_B's rule), and
// returns the placement.
func (s *copyPlaced) put(size int) placementRec {
	ci, v := s.list.Place(size)
	s.loads.Place(v)
	return placementRec{copyIdx: ci, node: v, size: size}
}

// putExisting is put without a new copy: when no existing copy has a
// vacant submachine of the size, ok is false and nothing is placed.
func (s *copyPlaced) putExisting(size int) (placementRec, bool) {
	ci, v, ok := s.list.PlaceExisting(size)
	if !ok {
		return placementRec{}, false
	}
	s.loads.Place(v)
	return placementRec{copyIdx: ci, node: v, size: size}, true
}

// place puts arriving task t by A_B's rule, in the slot find returned for
// it.
func (s *copyPlaced) place(slot int, t task.Task) tree.Node {
	rec := s.put(t.Size)
	s.placed.insert(slot, t.ID, rec)
	return rec.node
}

// depart releases id's submachine and returns its size; ok is false if id
// is not active.
func (s *copyPlaced) depart(id task.ID) (size int, ok bool) {
	rec, ok := s.placed.remove(id)
	if !ok {
		return 0, false
	}
	s.list.Vacate(rec.copyIdx, rec.node)
	s.loads.Remove(rec.node)
	return rec.size, true
}

// MaxLoad implements Allocator.
func (s *copyPlaced) MaxLoad() int { return s.loads.MaxLoad() }

// PELoads implements Allocator.
func (s *copyPlaced) PELoads() []int { return s.loads.Loads() }

// Placement implements Allocator.
func (s *copyPlaced) Placement(id task.ID) (tree.Node, bool) {
	rec, ok := s.placed.get(id)
	return rec.node, ok
}

// Active implements Allocator.
func (s *copyPlaced) Active() int { return s.placed.len() }

// failPE implements FailPE: vacate every task covering the failed leaf,
// block the leaf in every copy (and all future ones), then re-place the
// evicted tasks first-fit-decreasing through the existing list — the
// same machinery procedure A_R uses, so the post-failure layout obeys the
// same packing discipline. observer, if set, hears of each forced move.
func (s *copyPlaced) failPE(pe int, observer MigrationObserver) []Migration {
	s.markFailed(s.m, pe)
	leaf := s.m.LeafOf(pe)
	victims := s.covering(leaf)
	for _, t := range victims {
		rec := &s.placed.slots[t.slot].val
		s.list.Vacate(rec.copyIdx, rec.node)
		s.loads.Remove(rec.node)
	}
	s.list.Block(leaf)
	migs := make([]Migration, 0, len(victims))
	for _, t := range victims {
		rec := &s.placed.slots[t.slot].val
		old := rec.node
		*rec = s.put(t.Size)
		migs = append(migs, Migration{ID: t.ID, From: old, To: rec.node})
		if observer != nil {
			observer(t.ID, old, rec.node)
		}
	}
	s.recordMigrations(migs, s.m)
	return migs
}

// covering returns the active tasks whose submachine covers leaf, ordered
// by decreasing size then increasing ID (the A_R first-fit order, so
// forced re-placement packs as tightly as the reallocation procedure).
func (s *copyPlaced) covering(leaf tree.Node) []slotTask {
	var out []slotTask
	for i := range s.placed.slots {
		if e := &s.placed.slots[i]; e.used && s.m.Contains(e.val.node, leaf) {
			out = append(out, slotTask{task.Task{ID: e.id, Size: e.val.size}, i})
		}
	}
	slices.SortFunc(out, bySizeDesc)
	return out
}

// RecoverPE implements FaultTolerant.
func (s *copyPlaced) RecoverPE(pe int) {
	s.markRecovered(s.m, pe)
	s.list.Unblock(s.m.LeafOf(pe))
}
