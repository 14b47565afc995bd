package core

import (
	"fmt"

	"partalloc/internal/copies"
	"partalloc/internal/loadtree"
	"partalloc/internal/mathx"
	"partalloc/internal/task"
	"partalloc/internal/tree"
)

// Periodic is the d-reallocation algorithm A_M (§4.1). Per the paper:
//
//   - if d ≥ ⌈½(log N + 1)⌉ (or d = ∞, encoded as d < 0), reallocation
//     cannot beat greedy's bound, so it simply runs A_G and never
//     reallocates;
//   - otherwise it places arrivals with A_B, and whenever the cumulative
//     size of arrivals since the last reallocation reaches d·N it
//     reallocates every active task with procedure A_R
//     (first-fit-decreasing into fresh copies), the arrival that crossed
//     the threshold included.
//
// Theorem 4.2: its load is at most min{d+1, ⌈½(log N+1)⌉} · L*.
// With d = 0 it reallocates on every arrival and is exactly the optimal
// algorithm A_C of §3 (Theorem 3.1: load = L*).
type Periodic struct {
	m *tree.Machine
	d int // -1 encodes infinity

	// greedy mode (d ≥ greedy bound)
	greedy *Greedy

	// copy mode (d < greedy bound)
	copyLayout
	sinceRealo int64 // cumulative arrival size since last reallocation
	activeSize int64 // total size of active tasks, for the lazy trigger
	lazy       bool  // on-demand trigger (Degradable), as in Lazy
	faults     faultSet
}

// NewPeriodic returns A_M with reallocation parameter d on machine m.
// d < 0 encodes d = ∞ (never reallocate). The order parameter selects the
// paper's first-fit-decreasing (DecreasingSize) or the ablation
// ArrivalOrder for the reallocation procedure.
func NewPeriodic(m *tree.Machine, d int, order ReallocOrder) *Periodic {
	p := &Periodic{m: m, d: d, copyLayout: copyLayout{order: order}}
	if p.greedyMode() {
		p.greedy = NewGreedy(m)
	} else {
		p.list = copies.NewList(m)
		p.loads = loadtree.New(m)
		p.placed = make(map[task.ID]placementRec)
	}
	return p
}

// NewConstant returns the 0-reallocation algorithm A_C of §3: A_M with
// d = 0, which reallocates all active tasks on every arrival and achieves
// the optimal load L* (Theorem 3.1).
func NewConstant(m *tree.Machine) *Periodic {
	return NewPeriodic(m, 0, DecreasingSize)
}

// PeriodicFactory builds A_M(d) allocators.
func PeriodicFactory(d int) Factory {
	return Factory{
		Name: fmt.Sprintf("A_M(d=%d)", d),
		New:  func(m *tree.Machine) Allocator { return NewPeriodic(m, d, DecreasingSize) },
	}
}

// ConstantFactory builds A_C allocators.
func ConstantFactory() Factory {
	return Factory{Name: "A_C", New: func(m *tree.Machine) Allocator { return NewConstant(m) }}
}

func (p *Periodic) greedyMode() bool {
	bound := mathx.GreedyBound(p.m.N())
	return p.d < 0 || p.d >= bound
}

// D returns the reallocation parameter (-1 for ∞).
func (p *Periodic) D() int { return p.d }

// Name implements Allocator.
func (p *Periodic) Name() string {
	if p.d == 0 {
		return "A_C"
	}
	if p.d < 0 {
		return "A_M(d=inf)"
	}
	return fmt.Sprintf("A_M(d=%d)", p.d)
}

// Machine implements Allocator.
func (p *Periodic) Machine() *tree.Machine { return p.m }

// Arrive implements Allocator.
func (p *Periodic) Arrive(t task.Task) tree.Node {
	if p.greedy != nil {
		return p.greedy.Arrive(t)
	}
	checkArrival(p.m, t)
	if _, dup := p.placed[t.ID]; dup {
		panicDuplicate(t.ID, p.Name())
	}
	p.sinceRealo += int64(t.Size)
	p.activeSize += int64(t.Size)
	if p.shouldReallocate(t) {
		// Threshold reached (with d = 0 that is every arrival): reallocate
		// every active task, the new arrival included.
		p.placed[t.ID] = placementRec{copyIdx: -1, node: 0, size: t.Size}
		p.reallocate()
		p.sinceRealo = 0
		return p.placed[t.ID].node
	}
	ci, v := p.list.Place(t.Size)
	p.loads.Place(v)
	p.placed[t.ID] = placementRec{copyIdx: ci, node: v, size: t.Size}
	return v
}

// shouldReallocate decides whether t's arrival fires procedure A_R. The
// eager trigger is the paper's A_M rule (accumulated size reaches d·N);
// the lazy trigger additionally holds the earned reallocation until A_B
// would grow the copy count and compaction would actually avoid that —
// Lazy's exact condition, so a lazy-mode Periodic tracks Lazy move for
// move. Callers have already added t to sinceRealo and activeSize.
func (p *Periodic) shouldReallocate(t task.Task) bool {
	if p.sinceRealo < int64(p.d)*int64(p.m.N()) {
		return false
	}
	if !p.lazy {
		return true
	}
	n64 := int64(p.m.N())
	needNew := !p.list.HasVacant(t.Size)
	helps := (p.activeSize+n64-1)/n64 <= int64(p.list.Len())
	return needNew && helps
}

// EffectiveD implements Degradable.
func (p *Periodic) EffectiveD() int { return p.d }

// LazyRealloc implements Degradable.
func (p *Periodic) LazyRealloc() bool { return p.lazy }

// SetEffectiveD implements Degradable. Greedy-delegation instances have
// no reallocation machinery and refuse; raising d past the greedy bound
// on a copy-mode instance is allowed (it just reallocates ever rarer).
func (p *Periodic) SetEffectiveD(d int) bool {
	if p.greedy != nil || d < 0 {
		return false
	}
	p.d = d
	return true
}

// SetLazyRealloc implements Degradable.
func (p *Periodic) SetLazyRealloc(lazy bool) bool {
	if p.greedy != nil {
		return false
	}
	p.lazy = lazy
	return true
}

// Depart implements Allocator.
func (p *Periodic) Depart(id task.ID) {
	if p.greedy != nil {
		p.greedy.Depart(id)
		return
	}
	rec, ok := p.placed[id]
	if !ok {
		panic(fmt.Errorf("%w: %d (%s)", ErrUnknownTask, id, p.Name()))
	}
	p.list.Vacate(rec.copyIdx, rec.node)
	p.loads.Remove(rec.node)
	p.activeSize -= int64(rec.size)
	delete(p.placed, id)
}

// MaxLoad implements Allocator.
func (p *Periodic) MaxLoad() int {
	if p.greedy != nil {
		return p.greedy.MaxLoad()
	}
	return p.loads.MaxLoad()
}

// PELoads implements Allocator.
func (p *Periodic) PELoads() []int {
	if p.greedy != nil {
		return p.greedy.PELoads()
	}
	return p.loads.Loads()
}

// Placement implements Allocator.
func (p *Periodic) Placement(id task.ID) (tree.Node, bool) {
	if p.greedy != nil {
		return p.greedy.Placement(id)
	}
	rec, ok := p.placed[id]
	return rec.node, ok
}

// Active implements Allocator.
func (p *Periodic) Active() int {
	if p.greedy != nil {
		return p.greedy.Active()
	}
	return len(p.placed)
}

// UsesGreedy reports whether this instance delegates to A_G (d at or above
// the greedy bound).
func (p *Periodic) UsesGreedy() bool { return p.greedy != nil }

// FailPE implements FaultTolerant.
func (p *Periodic) FailPE(pe int) []Migration {
	if p.greedy != nil {
		return p.greedy.FailPE(pe)
	}
	p.faults.markFailed(p.m, pe)
	migs := failInCopies(p.m, p.list, p.loads, p.placed, pe, p.observer)
	p.faults.recordMigrations(migs, p.m)
	return migs
}

// RecoverPE implements FaultTolerant.
func (p *Periodic) RecoverPE(pe int) {
	if p.greedy != nil {
		p.greedy.RecoverPE(pe)
		return
	}
	p.faults.markRecovered(p.m, pe)
	p.list.Unblock(p.m.LeafOf(pe))
}

// FailedPEs implements FaultTolerant.
func (p *Periodic) FailedPEs() []int {
	if p.greedy != nil {
		return p.greedy.FailedPEs()
	}
	return p.faults.FailedPEs()
}

// ForcedStats implements FaultTolerant.
func (p *Periodic) ForcedStats() ForcedStats {
	if p.greedy != nil {
		return p.greedy.ForcedStats()
	}
	return p.faults.ForcedStats()
}
