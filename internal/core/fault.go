package core

import (
	"fmt"
	"slices"
	"sort"

	"partalloc/internal/copies"
	"partalloc/internal/loadtree"
	"partalloc/internal/task"
	"partalloc/internal/tree"
)

// faultSet tracks failed PEs and forced-migration accounting; embedded by
// every fault-tolerant allocator so the bookkeeping cannot drift apart.
type faultSet struct {
	failed []int // sorted PE numbers
	forced ForcedStats
}

// isFailed reports whether pe is currently failed.
func (f *faultSet) isFailed(pe int) bool {
	i := sort.SearchInts(f.failed, pe)
	return i < len(f.failed) && f.failed[i] == pe
}

// markFailed validates and records a new failure.
func (f *faultSet) markFailed(m *tree.Machine, pe int) {
	if pe < 0 || pe >= m.N() {
		panic(fmt.Sprintf("core: FailPE(%d) out of range for N=%d", pe, m.N()))
	}
	if f.isFailed(pe) {
		panic(fmt.Sprintf("core: FailPE(%d): PE already failed", pe))
	}
	f.failed = append(f.failed, pe)
	sort.Ints(f.failed)
	f.forced.Failures++
}

// markRecovered validates and records a recovery.
func (f *faultSet) markRecovered(m *tree.Machine, pe int) {
	if pe < 0 || pe >= m.N() {
		panic(fmt.Sprintf("core: RecoverPE(%d) out of range for N=%d", pe, m.N()))
	}
	i := sort.SearchInts(f.failed, pe)
	if i >= len(f.failed) || f.failed[i] != pe {
		panic(fmt.Sprintf("core: RecoverPE(%d): PE is not failed", pe))
	}
	f.failed = append(f.failed[:i], f.failed[i+1:]...)
	f.forced.Recoveries++
}

// FailedPEs implements FaultTolerant.
func (f *faultSet) FailedPEs() []int { return append([]int(nil), f.failed...) }

// ForcedStats implements FaultTolerant.
func (f *faultSet) ForcedStats() ForcedStats { return f.forced }

// recordMigrations charges forced moves to the fault ledger.
func (f *faultSet) recordMigrations(migs []Migration, m *tree.Machine) {
	for _, mg := range migs {
		f.forced.Migrations++
		f.forced.MovedPEs += int64(m.Size(mg.To))
	}
}

// affectedTasks returns the active tasks whose submachine covers leaf,
// ordered by decreasing size then increasing ID (the A_R first-fit order,
// so forced re-placement packs as tightly as the reallocation procedure).
func affectedTasks(m *tree.Machine, placed map[task.ID]placementRec, leaf tree.Node) []task.Task {
	var out []task.Task
	for id, rec := range placed {
		if m.Contains(rec.node, leaf) {
			out = append(out, task.Task{ID: id, Size: rec.size})
		}
	}
	slices.SortFunc(out, bySizeDesc)
	return out
}

// failInCopies implements FailPE for the copies-based allocators (A_B,
// A_M, A_C, lazy): vacate every task covering the failed leaf, block the
// leaf in every copy (and all future ones), then re-place the evicted
// tasks first-fit-decreasing through the existing list — the same
// machinery procedure A_R uses, so the post-failure layout obeys the same
// packing discipline.
func failInCopies(m *tree.Machine, list *copies.List, loads *loadtree.Tree, placed map[task.ID]placementRec, pe int, observer MigrationObserver) []Migration {
	leaf := m.LeafOf(pe)
	victims := affectedTasks(m, placed, leaf)
	for _, t := range victims {
		rec := placed[t.ID]
		list.Vacate(rec.copyIdx, rec.node)
		loads.Remove(rec.node)
	}
	list.Block(leaf)
	migs := make([]Migration, 0, len(victims))
	for _, t := range victims {
		old := placed[t.ID]
		ci, v := list.Place(t.Size)
		loads.Place(v)
		placed[t.ID] = placementRec{copyIdx: ci, node: v, size: t.Size}
		migs = append(migs, Migration{ID: t.ID, From: old.node, To: v})
		if observer != nil {
			observer(t.ID, old.node, v)
		}
	}
	return migs
}
