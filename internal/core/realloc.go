package core

import (
	"cmp"
	"math/bits"
	"slices"

	"partalloc/internal/task"
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

// reallocate runs procedure A_R (§3) over every placed task into the
// buffers A_M's copy-placed state already owns: it orders the active
// tasks (sortTasks), then first-fits each into the copies in that order,
// creating copies as needed, and within a copy takes the leftmost vacant
// submachine. Under DecreasingSize on a machine with no failed PE the
// copies fill as one packed prefix (Lemma 1), and the list places each
// task at its fill cursor without a search (see copies.List).
//
// The list's dropped copies are reused with the failed leaves blocked
// again, the load tree is zeroed in place (staying deferred mid-batch),
// and each placement is rewritten through the table slot it was read
// from, so once the buffers have held the peak task and copy counts a
// reallocation allocates nothing. A task "migrates" when its submachine
// root changes (moving between copies at the same node keeps the same PEs
// and is free); node 0 marks the arrival that triggered the
// reallocation, which has no previous placement. Observer calls come in
// A_R order.
func (p *Periodic) reallocate() {
	p.sortTasks()
	p.list.Reset()
	p.loads.Reset()
	// Outside a batch, A_R updates the tree eagerly or rebuilds it once,
	// O(N). An eager update walks maxBelow up from the task's node only
	// until an ancestor comes out unchanged (A_M's tree never searches,
	// so it holds no search table). Filling the copies in A_R's order
	// raises each node's maxBelow once per copy, so most walks stop
	// within a step or two. BenchmarkReallocate times the two even at N/2
	// tasks (512 of size 1 on n=1024), and eager faster at 100 tasks on
	// n=256 and at 80 on n=1024.
	rebuild := !p.loads.Deferred() && 2*len(p.tasks) >= p.m.N()
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

// sortTasks fills p.tasks with every placed task in A_R's order, ties in
// size broken by task ID so the procedure is deterministic. Sizes are
// powers of two, so DecreasingSize needs no comparison across sizes: one
// counting pass over the size classes (a class is a size's depth in the
// machine) fixes where each class's range starts, a second pass scatters
// the tasks from the table straight into their ranges, and only IDs
// within a class are compared. ArrivalOrder keeps every task in one
// class.
func (p *Periodic) sortTasks() {
	byDepth := p.order == DecreasingSize
	class := func(size int) int {
		if !byDepth {
			return 0
		}
		return p.m.DepthForSize(size)
	}
	slots := p.placed.slots
	// next[k] is where the next class-k task goes, once the counts are
	// summed; after the scatter it is where class k ends.
	var next [bits.UintSize + 1]int
	for i := range slots {
		if slots[i].used {
			next[class(slots[i].val.size)+1]++
		}
	}
	for k := 1; k < len(next); k++ {
		next[k] += next[k-1]
	}
	n := p.placed.len()
	p.tasks = slices.Grow(p.tasks[:0], n)[:n]
	for i := range slots {
		if e := &slots[i]; e.used {
			k := class(e.val.size)
			p.tasks[next[k]] = slotTask{task.Task{ID: e.id, Size: e.val.size}, i}
			next[k]++
		}
	}
	lo := 0
	for _, hi := range next[:p.m.Levels()+1] {
		slices.SortFunc(p.tasks[lo:hi], byID)
		lo = hi
	}
}

func byID(a, b slotTask) int { return cmp.Compare(a.ID, b.ID) }

// bySizeDesc is A_R's first-fit-decreasing order as a comparison: size
// descending, then task ID. The fault paths sort their few victims by it.
func bySizeDesc(a, b slotTask) int {
	if c := cmp.Compare(b.Size, a.Size); c != 0 {
		return c
	}
	return cmp.Compare(a.ID, b.ID)
}
