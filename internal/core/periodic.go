package core

import (
	"fmt"
	"strconv"

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
//
// The same type is A_M-lazy (NewLazy): A_M with its on-demand trigger
// fixed on, which spends the same d·N budget on a different schedule.
type Periodic struct {
	d        int  // -1 encodes infinity
	lazy     bool // on-demand trigger (Degradable)
	lazyOnly bool // A_M-lazy: lazy cannot be turned off

	// greedy mode (d ≥ greedy bound; for A_M-lazy only d = ∞)
	greedy *Greedy

	// copy mode: A_B's state, which procedure A_R repacks in place (in
	// greedy mode only its m is set)
	copyPlaced
	order      ReallocOrder
	tasks      []slotTask // A_R's sort buffer
	stats      ReallocStats
	observer   MigrationObserver
	sinceRealo int64 // cumulative arrival size since last reallocation
	activeSize int64 // total size of active tasks, for the lazy trigger
}

// NewPeriodic returns A_M with reallocation parameter d on machine m.
// d < 0 encodes d = ∞ (never reallocate). The order parameter selects the
// paper's first-fit-decreasing (DecreasingSize) or the ablation
// ArrivalOrder for the reallocation procedure.
func NewPeriodic(m *tree.Machine, d int, order ReallocOrder) *Periodic {
	return newPeriodic(m, d, order, false)
}

// NewLazy returns A_M-lazy: A_M(d) with the on-demand trigger fixed on,
// so an earned reallocation is held until it is useful.
//
// The paper's A_M reallocates eagerly at the first arrival where the size
// accumulated since the last reallocation reaches d·N. The model, however,
// only requires that consecutive reallocations be at least d·N arrived
// size apart — the algorithm may *hold* an earned reallocation until it is
// useful. That is exactly what the paper's §2 example exploits: on σ* a
// 1-reallocation algorithm reallocates at t5's arrival and achieves load
// 1, while eager A_M(d=1) spends its reallocation at t4 and incurs load 2.
//
// A_M-lazy places arrivals with A_B, and reallocates (procedure A_R) only
// when both (a) the A_B placement would create a new copy that compaction
// would avoid, and (b) at least d·N size has arrived since the last
// reallocation. It satisfies the same Theorem 4.2 bound as A_M — after a
// reallocation there are at most L* copies, and every new copy is created
// while the accumulated size is below d·N, so at most d extra copies exist
// at any time — and in practice reallocates far less often (see
// experiment E8). Because it reallocates so rarely it keeps its copies at
// every finite d, delegating to A_G only at d = ∞. d = 0 is allowed: the
// budget is always available, so it reallocates whenever A_B would grow
// the copy count, which also achieves the optimal load L*.
func NewLazy(m *tree.Machine, d int, order ReallocOrder) *Periodic {
	return newPeriodic(m, d, order, true)
}

func newPeriodic(m *tree.Machine, d int, order ReallocOrder, lazyOnly bool) *Periodic {
	p := &Periodic{d: d, lazy: lazyOnly, lazyOnly: lazyOnly, order: order}
	if d < 0 || !lazyOnly && d >= mathx.GreedyBound(m.N()) {
		p.greedy = NewGreedy(m)
		p.copyPlaced = copyPlaced{m: m}
	} else {
		p.copyPlaced = newCopyPlaced(m)
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

// LazyFactory builds A_M-lazy(d) allocators.
func LazyFactory(d int) Factory {
	return Factory{
		Name: fmt.Sprintf("A_M-lazy(d=%d)", d),
		New:  func(m *tree.Machine) Allocator { return NewLazy(m, d, DecreasingSize) },
	}
}

// ConstantFactory builds A_C allocators.
func ConstantFactory() Factory {
	return Factory{Name: "A_C", New: func(m *tree.Machine) Allocator { return NewConstant(m) }}
}

// Name implements Allocator.
func (p *Periodic) Name() string {
	if p.d == 0 && !p.lazyOnly {
		return "A_C"
	}
	d := "inf"
	if p.d >= 0 {
		d = strconv.Itoa(p.d)
	}
	if p.lazyOnly {
		return "A_M-lazy(d=" + d + ")"
	}
	return "A_M(d=" + d + ")"
}

// Arrive implements Allocator. Until the size arrived since the last
// reallocation reaches d·N, it places by A_B's rule. From there the
// eager trigger (the paper's A_M rule) reallocates at once. The lazy
// trigger holds the earned reallocation until A_B would grow the copy
// count and compaction would actually avoid that: it places t by first
// fit in the copies that exist, and only when none has room does it
// reallocate, if the active set, t included, fits in those copies, or
// open a new copy as A_B would.
func (p *Periodic) Arrive(t task.Task) tree.Node {
	if p.greedy != nil {
		return p.greedy.Arrive(t)
	}
	checkArrival(p.m, t)
	slot, dup := p.placed.find(t.ID)
	if dup {
		panicDuplicate(t.ID, p.Name())
	}
	p.sinceRealo += int64(t.Size)
	p.activeSize += int64(t.Size)
	if p.sinceRealo < int64(p.d)*int64(p.m.N()) {
		return p.place(slot, t)
	}
	if p.lazy {
		if rec, ok := p.putExisting(t.Size); ok {
			p.placed.insert(slot, t.ID, rec)
			return rec.node
		}
		if mathx.CeilDiv64(p.activeSize, int64(p.m.N())) > int64(p.list.Len()) {
			return p.place(slot, t)
		}
	}
	// Threshold reached (with d = 0 that is every arrival): reallocate
	// every active task, the new arrival included.
	slot = p.placed.insert(slot, t.ID, placementRec{copyIdx: -1, node: 0, size: t.Size})
	p.reallocate()
	p.sinceRealo = 0
	return p.placed.slots[slot].val.node
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

// SetLazyRealloc implements Degradable. A_M-lazy cannot leave its
// on-demand trigger, so only lazy=true takes effect on it.
func (p *Periodic) SetLazyRealloc(lazy bool) bool {
	if p.greedy != nil || p.lazyOnly && !lazy {
		return false
	}
	p.lazy = lazy
	return true
}

// SetMigrationObserver implements Observable.
func (p *Periodic) SetMigrationObserver(fn MigrationObserver) { p.observer = fn }

// ReallocStats implements Reallocator.
func (p *Periodic) ReallocStats() ReallocStats { return p.stats }

// Depart implements Allocator.
func (p *Periodic) Depart(id task.ID) {
	if p.greedy != nil {
		p.greedy.Depart(id)
		return
	}
	size, ok := p.depart(id)
	if !ok {
		panicUnknown(id, p.Name())
	}
	p.activeSize -= int64(size)
}

// MaxLoad implements Allocator.
func (p *Periodic) MaxLoad() int {
	if p.greedy != nil {
		return p.greedy.MaxLoad()
	}
	return p.copyPlaced.MaxLoad()
}

// PELoads implements Allocator.
func (p *Periodic) PELoads() []int {
	if p.greedy != nil {
		return p.greedy.PELoads()
	}
	return p.copyPlaced.PELoads()
}

// Placement implements Allocator.
func (p *Periodic) Placement(id task.ID) (tree.Node, bool) {
	if p.greedy != nil {
		return p.greedy.Placement(id)
	}
	return p.copyPlaced.Placement(id)
}

// Active implements Allocator.
func (p *Periodic) Active() int {
	if p.greedy != nil {
		return p.greedy.Active()
	}
	return p.copyPlaced.Active()
}

// UsesGreedy reports whether this instance delegates to A_G (d at or above
// the greedy bound; for A_M-lazy, d = ∞).
func (p *Periodic) UsesGreedy() bool { return p.greedy != nil }

// FailPE implements FaultTolerant.
func (p *Periodic) FailPE(pe int) []Migration {
	if p.greedy != nil {
		return p.greedy.FailPE(pe)
	}
	return p.failPE(pe, p.observer)
}

// RecoverPE implements FaultTolerant.
func (p *Periodic) RecoverPE(pe int) {
	if p.greedy != nil {
		p.greedy.RecoverPE(pe)
		return
	}
	p.copyPlaced.RecoverPE(pe)
}

// FailedPEs implements FaultTolerant.
func (p *Periodic) FailedPEs() []int {
	if p.greedy != nil {
		return p.greedy.FailedPEs()
	}
	return p.copyPlaced.FailedPEs()
}

// ForcedStats implements FaultTolerant.
func (p *Periodic) ForcedStats() ForcedStats {
	if p.greedy != nil {
		return p.greedy.ForcedStats()
	}
	return p.copyPlaced.ForcedStats()
}
