package core

import (
	"fmt"
	"sort"

	"partalloc/internal/tree"
)

// faultSet tracks failed PEs and forced-migration accounting; A_G and the
// copy-placed state embed it, so the bookkeeping cannot drift apart.
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
