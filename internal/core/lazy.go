package core

import (
	"fmt"

	"partalloc/internal/copies"
	"partalloc/internal/loadtree"
	"partalloc/internal/task"
	"partalloc/internal/tree"
)

// Lazy is a d-reallocation algorithm with *on-demand* reallocation timing.
//
// The paper's A_M reallocates eagerly at the first arrival where the size
// accumulated since the last reallocation reaches d·N. The model, however,
// only requires that consecutive reallocations be at least d·N arrived
// size apart — the algorithm may *hold* an earned reallocation until it is
// useful. That is exactly what the paper's §2 example exploits: on σ* a
// 1-reallocation algorithm reallocates at t5's arrival and achieves load
// 1, while eager A_M(d=1) spends its reallocation at t4 and incurs load 2.
//
// Lazy places arrivals with A_B, and reallocates (procedure A_R) only when
// both (a) the A_B placement would create a new copy, and (b) at least d·N
// size has arrived since the last reallocation. It satisfies the same
// Theorem 4.2 bound as A_M — after a reallocation there are at most L*
// copies, and every new copy is created while the accumulated size is
// below d·N, so at most d extra copies exist at any time — and in practice
// reallocates far less often (see experiment E8).
type Lazy struct {
	m      *tree.Machine
	d      int
	greedy *Greedy // delegation when d ≥ greedy bound, as in A_M
	copyLayout
	sinceRealo int64
	activeSize int64
	faults     faultSet
}

// NewLazy returns the lazy d-reallocation algorithm on machine m. d < 0
// encodes ∞. d = 0 is allowed: the budget is always available, so it
// reallocates whenever A_B would grow the copy count, which also achieves
// the optimal load L*.
func NewLazy(m *tree.Machine, d int, order ReallocOrder) *Lazy {
	l := &Lazy{m: m, d: d, copyLayout: copyLayout{order: order}}
	if d < 0 {
		l.greedy = NewGreedy(m)
	} else {
		l.list = copies.NewList(m)
		l.loads = loadtree.New(m)
		l.placed = make(map[task.ID]placementRec)
	}
	return l
}

// LazyFactory builds Lazy(d) allocators.
func LazyFactory(d int) Factory {
	return Factory{
		Name: fmt.Sprintf("A_M-lazy(d=%d)", d),
		New:  func(m *tree.Machine) Allocator { return NewLazy(m, d, DecreasingSize) },
	}
}

// Name implements Allocator.
func (l *Lazy) Name() string {
	if l.d < 0 {
		return "A_M-lazy(d=inf)"
	}
	return fmt.Sprintf("A_M-lazy(d=%d)", l.d)
}

// Machine implements Allocator.
func (l *Lazy) Machine() *tree.Machine { return l.m }

// Arrive implements Allocator.
func (l *Lazy) Arrive(t task.Task) tree.Node {
	if l.greedy != nil {
		return l.greedy.Arrive(t)
	}
	checkArrival(l.m, t)
	if _, dup := l.placed[t.ID]; dup {
		panicDuplicate(t.ID, l.Name())
	}
	l.sinceRealo += int64(t.Size)
	l.activeSize += int64(t.Size)
	// Would A_B need a new copy, and is the reallocation budget earned?
	needNew := !l.list.HasVacant(t.Size)
	// Reallocating is only worthwhile if compaction actually avoids the new
	// copy: the active set (new task included) must fit in the copies that
	// already exist. Otherwise the budget is saved for later.
	n64 := int64(l.m.N())
	helps := (l.activeSize+n64-1)/n64 <= int64(l.list.Len())
	if needNew && helps && l.sinceRealo >= int64(l.d)*n64 {
		l.placed[t.ID] = placementRec{copyIdx: -1, node: 0, size: t.Size}
		l.reallocate()
		l.sinceRealo = 0
		return l.placed[t.ID].node
	}
	ci, v := l.list.Place(t.Size)
	l.loads.Place(v)
	l.placed[t.ID] = placementRec{copyIdx: ci, node: v, size: t.Size}
	return v
}

// Depart implements Allocator.
func (l *Lazy) Depart(id task.ID) {
	if l.greedy != nil {
		l.greedy.Depart(id)
		return
	}
	rec, ok := l.placed[id]
	if !ok {
		panic(fmt.Errorf("%w: %d (%s)", ErrUnknownTask, id, l.Name()))
	}
	l.list.Vacate(rec.copyIdx, rec.node)
	l.loads.Remove(rec.node)
	l.activeSize -= int64(rec.size)
	delete(l.placed, id)
}

// MaxLoad implements Allocator.
func (l *Lazy) MaxLoad() int {
	if l.greedy != nil {
		return l.greedy.MaxLoad()
	}
	return l.loads.MaxLoad()
}

// PELoads implements Allocator.
func (l *Lazy) PELoads() []int {
	if l.greedy != nil {
		return l.greedy.PELoads()
	}
	return l.loads.Loads()
}

// Placement implements Allocator.
func (l *Lazy) Placement(id task.ID) (tree.Node, bool) {
	if l.greedy != nil {
		return l.greedy.Placement(id)
	}
	rec, ok := l.placed[id]
	return rec.node, ok
}

// Active implements Allocator.
func (l *Lazy) Active() int {
	if l.greedy != nil {
		return l.greedy.Active()
	}
	return len(l.placed)
}

// EffectiveD implements Degradable.
func (l *Lazy) EffectiveD() int { return l.d }

// LazyRealloc implements Degradable; Lazy's trigger is always on-demand.
func (l *Lazy) LazyRealloc() bool { return true }

// SetEffectiveD implements Degradable.
func (l *Lazy) SetEffectiveD(d int) bool {
	if l.greedy != nil || d < 0 {
		return false
	}
	l.d = d
	return true
}

// SetLazyRealloc implements Degradable. Lazy cannot leave its on-demand
// trigger, so only lazy=true "takes effect".
func (l *Lazy) SetLazyRealloc(lazy bool) bool {
	return l.greedy == nil && lazy
}

// FailPE implements FaultTolerant.
func (l *Lazy) FailPE(pe int) []Migration {
	if l.greedy != nil {
		return l.greedy.FailPE(pe)
	}
	l.faults.markFailed(l.m, pe)
	migs := failInCopies(l.m, l.list, l.loads, l.placed, pe, l.observer)
	l.faults.recordMigrations(migs, l.m)
	return migs
}

// RecoverPE implements FaultTolerant.
func (l *Lazy) RecoverPE(pe int) {
	if l.greedy != nil {
		l.greedy.RecoverPE(pe)
		return
	}
	l.faults.markRecovered(l.m, pe)
	l.list.Unblock(l.m.LeafOf(pe))
}

// FailedPEs implements FaultTolerant.
func (l *Lazy) FailedPEs() []int {
	if l.greedy != nil {
		return l.greedy.FailedPEs()
	}
	return l.faults.FailedPEs()
}

// ForcedStats implements FaultTolerant.
func (l *Lazy) ForcedStats() ForcedStats {
	if l.greedy != nil {
		return l.greedy.ForcedStats()
	}
	return l.faults.ForcedStats()
}
