package core

import (
	"fmt"
	"slices"

	"partalloc/internal/errs"
	"partalloc/internal/task"
	"partalloc/internal/tree"
)

// Greedy is algorithm A_G (§4.1): on arrival of a size-2^x task, compute
// the loads of all 2^x-PE submachines and assign the task to the leftmost
// one with the smallest load. It never reallocates. Theorem 4.1: its load
// is at most ⌈½(log N + 1)⌉ · L*.
//
// Under PE failures the rule is unchanged except that submachines covering
// a failed PE are excluded from the candidate set, and tasks stranded by a
// failure are re-placed by the same rule (leftmost minimum-load healthy
// submachine, largest tasks first).
type Greedy struct {
	nodePlaced
	faultSet
	// failedUnder[v] counts failed PEs in v's subtree; allocated lazily on
	// the first failure so fault-free runs keep the O(log N) placement path.
	failedUnder []int32
}

// NewGreedy returns A_G on machine m.
func NewGreedy(m *tree.Machine) *Greedy {
	return &Greedy{nodePlaced: newNodePlaced(m, "A_G")}
}

// GreedyFactory builds A_G allocators.
func GreedyFactory() Factory {
	return Factory{Name: "A_G", New: func(m *tree.Machine) Allocator { return NewGreedy(m) }}
}

// Arrive implements Allocator using the leftmost-minimum-load rule.
func (g *Greedy) Arrive(t task.Task) tree.Node {
	slot := g.admit(t)
	v := g.choose(t.Size)
	g.place(slot, t, v)
	return v
}

// choose picks the leftmost minimum-load submachine of the given size,
// excluding any that covers a failed PE.
func (g *Greedy) choose(size int) tree.Node {
	if len(g.failed) == 0 {
		v, _ := g.loads.LeftmostMinLoad(size)
		return v
	}
	best, bestLoad := tree.Node(0), 0
	for _, v := range g.m.Submachines(size) {
		if g.failedUnder[v] > 0 {
			continue
		}
		if l := g.loads.SubmachineLoad(v); best == 0 || l < bestLoad {
			best, bestLoad = v, l
		}
	}
	if best == 0 {
		panic(fmt.Errorf("core: no size-%d submachine avoids the %d failed PE(s) (A_G): %w", size, len(g.failed), errs.ErrMachineFull))
	}
	return best
}

// FailPE implements FaultTolerant.
func (g *Greedy) FailPE(pe int) []Migration {
	g.markFailed(g.m, pe)
	if g.failedUnder == nil {
		g.failedUnder = make([]int32, g.m.NumNodes()+1)
	}
	leaf := g.m.LeafOf(pe)
	for v := leaf; v >= 1; v = g.m.Parent(v) {
		g.failedUnder[v]++
		if v == 1 {
			break
		}
	}
	// Evict and re-place every task covering the failed leaf, largest
	// first so big tasks still find healthy submachines.
	var victims []slotTask
	for i := range g.placed.slots {
		if e := &g.placed.slots[i]; e.used && g.m.Contains(e.val, leaf) {
			victims = append(victims, slotTask{task.Task{ID: e.id, Size: g.m.Size(e.val)}, i})
		}
	}
	slices.SortFunc(victims, bySizeDesc)
	for _, t := range victims {
		g.loads.Remove(g.placed.slots[t.slot].val)
	}
	migs := make([]Migration, 0, len(victims))
	for _, t := range victims {
		v := &g.placed.slots[t.slot].val
		old := *v
		*v = g.choose(t.Size)
		g.loads.Place(*v)
		migs = append(migs, Migration{ID: t.ID, From: old, To: *v})
	}
	g.recordMigrations(migs, g.m)
	return migs
}

// RecoverPE implements FaultTolerant.
func (g *Greedy) RecoverPE(pe int) {
	g.markRecovered(g.m, pe)
	for v := g.m.LeafOf(pe); v >= 1; v = g.m.Parent(v) {
		g.failedUnder[v]--
		if v == 1 {
			break
		}
	}
}
