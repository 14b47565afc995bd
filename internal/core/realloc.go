package core

import (
	"cmp"
	"slices"

	"partalloc/internal/copies"
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
	p := Periodic{copyPlaced: newCopyPlaced(m), order: order}
	for _, t := range tasks {
		p.placed.add(t.ID, placementRec{copyIdx: -1, size: t.Size})
	}
	p.reallocate()
	placed := make(map[task.ID]placementRec, p.placed.len())
	for _, e := range p.placed.slots {
		if e.used {
			placed[e.id] = e.val
		}
	}
	return p.list, placed
}

// reallocate runs procedure A_R over every placed task into the buffers
// A_M's copy-placed state already owns: the list's dropped copies are
// reused with the failed leaves blocked again, the load tree is zeroed in
// place (staying deferred mid-batch), and each placement is rewritten
// through the table slot it was read from, so once the buffers have held
// the peak task and copy counts a reallocation allocates nothing. A task
// "migrates" when its submachine root changes (moving between copies at
// the same node keeps the same PEs and is free); node 0 marks the arrival
// that triggered the reallocation, which has no previous placement.
// Observer calls come in A_R order.
func (p *Periodic) reallocate() {
	p.tasks = p.tasks[:0]
	for i := range p.placed.slots {
		if e := &p.placed.slots[i]; e.used {
			p.tasks = append(p.tasks, slotTask{task.Task{ID: e.id, Size: e.val.size}, i})
		}
	}
	if p.order == DecreasingSize {
		slices.SortFunc(p.tasks, bySizeDesc)
	} else {
		slices.SortFunc(p.tasks, func(a, b slotTask) int { return cmp.Compare(a.ID, b.ID) })
	}
	p.list.Reset()
	p.loads.Reset()
	// Outside a batch, A_R updates the tree eagerly, one O(log N)
	// maxBelow path per task (A_M's tree never searches, so it holds no
	// search table), or rebuilds it once, O(N). Priced that way the
	// switch would be len(tasks)·lv ≥ NumNodes, but an eager path step
	// costs several steps of the rebuild's sequential pass:
	// BenchmarkReallocate times the two even at 40 tasks on n=256 and the
	// rebuild faster at 80 on n=1024, where this switch already rebuilds.
	lv := p.m.Levels() + 1
	rebuild := !p.loads.Deferred() && len(p.tasks)*lv*lv >= 4*p.m.NumNodes()
	if rebuild {
		p.loads.BeginDeferred()
	}
	for _, t := range p.tasks {
		rec := &p.placed.slots[t.slot].val
		old := rec.node
		*rec = p.put(t.Size)
		if old != 0 && old != rec.node {
			p.stats.Migrations++
			p.stats.MovedPEs += int64(t.Size)
			if p.observer != nil {
				p.observer(t.ID, old, rec.node)
			}
		}
	}
	if rebuild {
		p.loads.EndDeferred()
	}
	p.stats.Reallocations++
}

// bySizeDesc is A_R's first-fit-decreasing order: size descending, then
// task ID.
func bySizeDesc(a, b slotTask) int {
	if c := cmp.Compare(b.Size, a.Size); c != 0 {
		return c
	}
	return cmp.Compare(a.ID, b.ID)
}
