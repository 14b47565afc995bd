// Package core implements the paper's processor-allocation algorithms for
// partitionable tree machines (Gao/Rosenberg/Sitaraman, SPAA'96):
//
//   - A_G  — the greedy on-line algorithm (§4.1): place each arriving task
//     on the leftmost minimum-load submachine of its size; never
//     reallocates. Load ≤ ⌈½(log N + 1)⌉·L* (Theorem 4.1).
//   - A_B  — the basic first-fit-over-copies algorithm (§4.1): load ≤
//     ⌈S/N⌉ where S is the total size of arrivals (Lemma 2).
//   - A_R  — the reallocation procedure (§3): first-fit-decreasing over
//     fresh copies; achieves ⌈S/N⌉ for any active set (Lemma 1).
//   - A_C  — the constantly-reallocating algorithm (§3): reallocates on
//     every arrival and achieves the optimal load L* (Theorem 3.1).
//   - A_M  — the d-reallocation algorithm (§4.1): A_B between
//     reallocations, A_R whenever the size arrived since the last
//     reallocation reaches d·N; if d ≥ ⌈½(log N+1)⌉ it degenerates to A_G.
//     Load ≤ min{d+1, ⌈½(log N+1)⌉}·L* (Theorem 4.2).
//   - A_Rand — the oblivious randomized algorithm (§5.1): place each task
//     uniformly at random among the submachines of its size. Expected load
//     ≤ (3·log N/log log N + 1)·L* (Theorem 5.1).
//
// All allocators share the Allocator interface and expose their current
// placements so adversaries (internal/adversary) and metrics
// (internal/sim, internal/metrics) can observe them.
package core

import (
	"fmt"
	"math/bits"

	"partalloc/internal/errs"
	"partalloc/internal/mathx"
	"partalloc/internal/task"
	"partalloc/internal/tree"
)

// Allocator is an on-line processor-allocation algorithm. An arriving task
// must be assigned a submachine of exactly its size immediately; a
// departing task's submachine is released. Implementations are not safe
// for concurrent use.
type Allocator interface {
	// Name identifies the algorithm (for reports), e.g. "A_G".
	Name() string
	// Machine returns the machine being managed.
	Machine() *tree.Machine
	// Arrive assigns t a submachine and returns its root node. Reallocating
	// algorithms may also move other tasks during this call.
	Arrive(t task.Task) tree.Node
	// Depart releases the submachine of a previously arrived task.
	Depart(id task.ID)
	// MaxLoad returns the current machine-wide maximum PE load.
	MaxLoad() int
	// PELoads returns a snapshot of all PE loads.
	PELoads() []int
	// Placement returns the current node of an active task.
	Placement(id task.ID) (tree.Node, bool)
	// Active returns the number of active tasks.
	Active() int
}

// ReallocStats quantifies reallocation work: how often global reallocation
// ran, how many tasks physically changed submachine, and the cumulative PE
// count of moved tasks (a proxy for checkpoint/migration traffic).
type ReallocStats struct {
	Reallocations int
	Migrations    int64
	MovedPEs      int64
}

// Reallocator is implemented by allocators that may migrate tasks.
type Reallocator interface {
	Allocator
	ReallocStats() ReallocStats
}

// MigrationObserver receives one callback per migrated task during a
// reallocation: the task moved from the submachine rooted at `from` to the
// one rooted at `to`. Experiments use it to price migrations on different
// physical topologies (see internal/topology.MigrationCost).
type MigrationObserver func(id task.ID, from, to tree.Node)

// Observable is implemented by allocators that can report individual
// migrations.
type Observable interface {
	SetMigrationObserver(MigrationObserver)
}

// Degradable is implemented by allocators whose reallocation parameter d
// can be retuned while running — the paper's balance-vs-migration trade
// exposed as a live knob. The engine's Degrade overload policy uses it to
// raise the effective d (fewer, cheaper reallocations) or switch A_M to
// its lazy trigger under load, and to restore the configured setting once
// healthy.
//
// The Set methods report whether the knob took effect: an instance that
// delegates to A_G (d at or above the greedy bound at construction) has
// no reallocation machinery to retune and returns false, as does an
// attempt to set a state the instance cannot leave (A_M-lazy is always
// lazy). Knob changes apply from the next arrival; they never trigger or
// cancel a reallocation retroactively.
type Degradable interface {
	// EffectiveD returns the live reallocation parameter (-1 for ∞).
	EffectiveD() int
	// LazyRealloc reports whether the on-demand (lazy) trigger is active.
	LazyRealloc() bool
	// SetEffectiveD sets the live reallocation parameter (d ≥ 0).
	SetEffectiveD(d int) bool
	// SetLazyRealloc enables or disables the on-demand trigger.
	SetLazyRealloc(lazy bool) bool
}

// Migration records one forced task move: the task left the submachine
// rooted at From because a PE under it failed, and now runs at To.
type Migration struct {
	ID   task.ID
	From tree.Node
	To   tree.Node
}

// ForcedStats quantifies fault-handling work separately from the voluntary
// d·N reallocation budget of ReallocStats: failures survived, recoveries
// absorbed, and the forced-migration traffic they caused. Forced moves are
// imposed by the environment, not chosen by the algorithm, so the paper's
// budget accounting (and the invariant checker's realloc-budget rule)
// never charges them.
type ForcedStats struct {
	Failures   int
	Recoveries int
	Migrations int64
	MovedPEs   int64
}

// FaultTolerant is implemented by allocators that survive PE failures:
// when a PE fails, every active task whose submachine covers it is
// forcibly migrated to a healthy submachine of the same size, and no
// subsequent placement covers a failed PE until it recovers.
type FaultTolerant interface {
	Allocator
	// FailPE marks PE pe failed and migrates away every task covering it,
	// returning the forced migrations in a deterministic order. It panics
	// if pe is out of range, already failed, or if some affected task has
	// no healthy submachine of its size left.
	FailPE(pe int) []Migration
	// RecoverPE marks a failed PE healthy again. Recovery only adds
	// capacity, so no task moves.
	RecoverPE(pe int)
	// FailedPEs returns the currently failed PEs in increasing order.
	FailedPEs() []int
	// ForcedStats returns cumulative fault-handling counters.
	ForcedStats() ForcedStats
}

// Factory builds a fresh allocator for a machine; experiments use it to
// run the same algorithm across many machines and seeds.
type Factory struct {
	Name string
	New  func(m *tree.Machine) Allocator
}

// ErrUnknownTask is wrapped by Depart panics; exported for tests.
var ErrUnknownTask = fmt.Errorf("core: departure of unknown task")

// checkArrival validates a task against the machine; shared by all
// allocators. It panics with errors wrapping the errs sentinels so
// harnesses that recover (internal/engine) can surface a typed error.
// The error is built out of line, so the check inlines. A size passes if
// it has one bit set and is at most N read unsigned, which rules out
// every size below 1.
func checkArrival(m *tree.Machine, t task.Task) {
	if bits.OnesCount(uint(t.Size)) != 1 || uint(t.Size) > uint(m.N()) {
		panicBadSize(m, t)
	}
}

// panicBadSize reports an arrival checkArrival rejects.
func panicBadSize(m *tree.Machine, t task.Task) {
	if !mathx.IsPow2(t.Size) {
		panic(fmt.Errorf("core: task %d size %d: %w", t.ID, t.Size, errs.ErrNotPowerOfTwo))
	}
	panic(fmt.Errorf("core: task %d size %d on an N=%d machine: %w", t.ID, t.Size, m.N(), errs.ErrTaskTooLarge))
}

// panicDuplicate reports a second arrival of an already-active task; shared
// by every allocator so the wrapped sentinel cannot drift apart.
func panicDuplicate(id task.ID, algo string) {
	panic(fmt.Errorf("core: duplicate arrival of task %d (%s): %w", id, algo, errs.ErrDuplicateTask))
}

// panicUnknown reports the departure of a task that is not active.
func panicUnknown(id task.ID, algo string) {
	panic(fmt.Errorf("%w: %d (%s)", ErrUnknownTask, id, algo))
}
