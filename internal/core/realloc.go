package core

import (
	"cmp"
	"slices"

	"partalloc/internal/copies"
	"partalloc/internal/loadtree"
	"partalloc/internal/task"
	"partalloc/internal/tree"
)

// ReallocOrder selects how the reallocation procedure orders tasks before
// first-fit placement.
type ReallocOrder int

const (
	// DecreasingSize is the paper's A_R order (§3): sort by decreasing
	// size. First-fit-decreasing over complete subtrees leaves no vacancy
	// except possibly in the last copy (Lemma 1), so the resulting load is
	// exactly ⌈S/N⌉.
	DecreasingSize ReallocOrder = iota
	// ArrivalOrder is the ablation variant: first-fit in task-ID (arrival)
	// order. Lemma 1 does not hold for it; the E5 ablation table shows the
	// fragmentation it admits.
	ArrivalOrder
)

func (o ReallocOrder) String() string {
	if o == ArrivalOrder {
		return "arrival-order"
	}
	return "decreasing-size"
}

// ReallocateAll is the paper's reallocation procedure A_R (§3): take the
// active task set, sort it (per order), and first-fit each task into the
// first copy of T with a vacant submachine of its size, creating copies as
// needed; within a copy, take the leftmost vacant submachine. It returns
// a fresh copy list and the placements.
//
// Ties in size are broken by task ID so the procedure is deterministic.
func ReallocateAll(m *tree.Machine, tasks []task.Task, order ReallocOrder) (*copies.List, map[task.ID]placementRec) {
	s := copyLayout{order: order, list: copies.NewList(m), loads: loadtree.New(m),
		placed: make(map[task.ID]placementRec, len(tasks))}
	for _, t := range tasks {
		s.placed[t.ID] = placementRec{copyIdx: -1, size: t.Size}
	}
	s.reallocate()
	return s.list, s.placed
}

// copyLayout is the copy-mode state A_M and A_M-lazy share: the copy
// list, load tree and placement map that A_B fills between
// reallocations, and that procedure A_R rebuilds in place.
type copyLayout struct {
	order    ReallocOrder
	list     *copies.List
	loads    *loadtree.Tree
	placed   map[task.ID]placementRec
	tasks    []task.Task // A_R's sort buffer
	stats    ReallocStats
	observer MigrationObserver
}

// SetMigrationObserver implements Observable.
func (s *copyLayout) SetMigrationObserver(fn MigrationObserver) { s.observer = fn }

// ReallocStats implements Reallocator.
func (s *copyLayout) ReallocStats() ReallocStats { return s.stats }

// reallocate runs procedure A_R over every placed task into the buffers
// the layout already owns: the list's dropped copies are reused with the
// failed leaves blocked again, the load tree is zeroed in place (staying
// deferred mid-batch), and each placement is rewritten, so once the
// buffers have held the peak task and copy counts a reallocation
// allocates nothing. A task "migrates" when its submachine root changes
// (moving between copies at the same node keeps the same PEs and is
// free); node 0 marks the arrival that triggered the reallocation, which
// has no previous placement. Observer calls come in A_R order.
func (s *copyLayout) reallocate() {
	s.tasks = s.tasks[:0]
	for id, rec := range s.placed {
		s.tasks = append(s.tasks, task.Task{ID: id, Size: rec.size})
	}
	if s.order == DecreasingSize {
		slices.SortFunc(s.tasks, bySizeDesc)
	} else {
		slices.SortFunc(s.tasks, func(a, b task.Task) int { return cmp.Compare(a.ID, b.ID) })
	}
	s.list.Reset()
	s.loads.Reset()
	// Outside a batch, one deferred O(N) rebuild is cheaper than
	// len(tasks) eager O(log²N) updates above this size.
	m := s.loads.Machine()
	lv := m.Levels() + 1
	rebuild := !s.loads.Deferred() && len(s.tasks)*lv*lv >= 4*m.NumNodes()
	if rebuild {
		s.loads.BeginDeferred()
	}
	for _, t := range s.tasks {
		ci, v := s.list.Place(t.Size)
		s.loads.Place(v)
		old := s.placed[t.ID]
		s.placed[t.ID] = placementRec{copyIdx: ci, node: v, size: t.Size}
		if old.node != 0 && old.node != v {
			s.stats.Migrations++
			s.stats.MovedPEs += int64(t.Size)
			if s.observer != nil {
				s.observer(t.ID, old.node, v)
			}
		}
	}
	if rebuild {
		s.loads.EndDeferred()
	}
	s.stats.Reallocations++
}

// bySizeDesc is A_R's first-fit-decreasing order: size descending, then
// task ID.
func bySizeDesc(a, b task.Task) int {
	if c := cmp.Compare(b.Size, a.Size); c != 0 {
		return c
	}
	return cmp.Compare(a.ID, b.ID)
}
