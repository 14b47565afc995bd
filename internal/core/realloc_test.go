package core

import (
	"bytes"
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"testing"

	"partalloc/internal/task"
	"partalloc/internal/tree"
	"partalloc/internal/workload"
)

// snapshotWith returns the snapshot p would encode with the copy list,
// load tree, placements and reallocation ledger of s in place of its own.
func snapshotWith(p, s *Periodic) []byte {
	y := *p
	y.list, y.loads, y.placed, y.stats = s.list, s.loads, s.placed, s.stats
	return y.Snapshot()
}

// freshAR is the reference reallocation: the routine ReallocateAll runs,
// on a new List and Tree, with the failed PEs' leaves blocked first.
func freshAR(m *tree.Machine, order ReallocOrder, active map[task.ID]int, failed []int) *Periodic {
	s := &Periodic{copyPlaced: newCopyPlaced(m), order: order}
	for _, pe := range failed {
		s.list.Block(m.LeafOf(pe))
	}
	for id, size := range active {
		s.placed.add(id, placementRec{copyIdx: -1, size: size})
	}
	s.reallocate()
	return s
}

// TestInPlaceReallocMatchesFresh checks that rerunning A_R into recycled
// buffers (copies that held tasks and blocks, a tree that may be deferred
// mid-batch, a rewritten placement map) leaves exactly the state a fresh
// List and Tree would. A serial twin finds each reallocating event and
// the placements just before it; the allocator under test then applies
// up to that event serially or as one ApplyBatch, and PEs fail and
// recover between reallocations.
func TestInPlaceReallocMatchesFresh(t *testing.T) {
	m := tree.MustNew(64)
	makers := []struct {
		name string
		new  func(ReallocOrder) *Periodic
	}{
		{"A_M(d=1)", func(o ReallocOrder) *Periodic { return NewPeriodic(m, 1, o) }},
		{"A_M(d=1,lazy)", func(o ReallocOrder) *Periodic {
			p := NewPeriodic(m, 1, o)
			p.SetLazyRealloc(true)
			return p
		}},
		{"A_M-lazy(d=1)", func(o ReallocOrder) *Periodic { return NewLazy(m, 1, o) }},
	}
	for mi, mk := range makers {
		for _, order := range []ReallocOrder{DecreasingSize, ArrivalOrder} {
			for _, batched := range []bool{false, true} {
				seed := int64(10*mi) + int64(order)*2
				if batched {
					seed++
				}
				t.Run(fmt.Sprintf("%s/%s/batched=%v", mk.name, order, batched), func(t *testing.T) {
					checkInPlaceRealloc(t, m, mk.new(order), mk.new(order), order, batched, seed)
				})
			}
		}
	}
}

func checkInPlaceRealloc(t *testing.T, m *tree.Machine, a, twin *Periodic, order ReallocOrder, batched bool, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	evs := workload.Poisson(workload.Config{N: m.N(), Arrivals: 5000, MeanDuration: 40, Seed: seed}).Events
	active := make(map[task.ID]int)
	var reallocs, faulted, recovered int
	for i := 0; i < len(evs); {
		// Fail or recover a PE between reallocations. Poisson sizes stay
		// ≤ N/2, so one failed PE leaves a healthy submachine per size.
		if rng.Intn(2) == 0 {
			if failed := a.FailedPEs(); len(failed) == 0 {
				pe := rng.Intn(m.N())
				a.FailPE(pe)
				twin.FailPE(pe)
			} else {
				a.RecoverPE(failed[0])
				twin.RecoverPE(failed[0])
				recovered++
			}
		}
		k := i
		var pre map[task.ID]placementRec
		var preStats ReallocStats
		for ; k < len(evs); k++ {
			pre, preStats = twin.placed.toMap(), twin.ReallocStats()
			ApplyEvents(twin, evs[k:k+1])
			if twin.ReallocStats().Reallocations > preStats.Reallocations {
				break
			}
		}
		end := min(k+1, len(evs))
		if batched {
			a.ApplyBatch(evs[i:end])
		} else {
			ApplyEvents(a, evs[i:end])
		}
		for _, e := range evs[i:end] {
			if e.Kind == task.Arrive {
				active[e.Task] = e.Size
			} else {
				delete(active, e.Task)
			}
		}
		if k < len(evs) {
			reallocs++
			if len(a.FailedPEs()) > 0 {
				faulted++
			}
			checkAgainstFresh(t, m, a, order, active, pre, preStats)
		}
		i = end
	}
	if reallocs < 10 || faulted == 0 || recovered == 0 {
		t.Fatalf("weak run: %d reallocations, %d with failed PEs, %d recoveries", reallocs, faulted, recovered)
	}
}

// checkAgainstFresh compares a's state just after a reallocation with a
// fresh A_R over the same active set; pre and preStats are a's placements
// and ledger just before the reallocating arrival.
func checkAgainstFresh(t *testing.T, m *tree.Machine, a *Periodic, order ReallocOrder, active map[task.ID]int, pre map[task.ID]placementRec, preStats ReallocStats) {
	t.Helper()
	failed := a.FailedPEs()
	want := freshAR(m, order, active, failed)
	want.stats = preStats
	want.stats.Reallocations++
	for id, rec := range want.placed.toMap() {
		if old, ok := pre[id]; ok && old.node != rec.node {
			want.stats.Migrations++
			want.stats.MovedPEs += int64(rec.size)
		}
	}
	if !maps.Equal(a.placed.toMap(), want.placed.toMap()) {
		t.Fatalf("placements differ from a fresh A_R:\n got %v\nwant %v", a.placed.toMap(), want.placed.toMap())
	}
	if a.list.Len() != want.list.Len() {
		t.Fatalf("List.Len() = %d, fresh A_R %d", a.list.Len(), want.list.Len())
	}
	if a.ReallocStats() != want.stats {
		t.Fatalf("ReallocStats = %+v, want %+v", a.ReallocStats(), want.stats)
	}
	if !slices.Equal(a.PELoads(), want.loads.Loads()) {
		t.Fatalf("PELoads = %v, fresh A_R %v", a.PELoads(), want.loads.Loads())
	}
	for i := 0; i < a.list.Len(); i++ {
		c := a.list.At(i)
		c.CheckInvariants()
		if !slices.Equal(c.AssignedNodes(), want.list.At(i).AssignedNodes()) {
			t.Fatalf("copy %d assigns %v, fresh A_R %v", i, c.AssignedNodes(), want.list.At(i).AssignedNodes())
		}
		for pe := 0; pe < m.N(); pe++ {
			if c.Blocked(m.LeafOf(pe)) != slices.Contains(failed, pe) {
				t.Fatalf("copy %d: PE %d blocked=%v with failed PEs %v", i, pe, c.Blocked(m.LeafOf(pe)), failed)
			}
		}
	}
	a.loads.CheckInvariants()
	if !bytes.Equal(a.Snapshot(), snapshotWith(a, want)) {
		t.Fatal("Snapshot bytes differ from the fresh A_R state's")
	}
}

// TestReallocateAllocatesNothing guards the in-place A_R: once warm, an
// A_M(2) or A_M-lazy(2) batch that reallocates allocates nothing.
func TestReallocateAllocatesNothing(t *testing.T) {
	m := tree.MustNew(256)
	// Eight size-64 arrivals fill two copies and earn the d·N budget; four
	// departures leave no vacant size-128 submachine, so the size-128
	// arrival makes A_M-lazy reallocate; then every task departs.
	var batch []task.Event
	ev := func(k task.Kind, id task.ID, size int) {
		batch = append(batch, task.Event{Kind: k, Task: id, Size: size})
	}
	for id := task.ID(1); id <= 8; id++ {
		ev(task.Arrive, id, 64)
	}
	for _, id := range []task.ID{1, 3, 5, 7} {
		ev(task.Depart, id, 64)
	}
	ev(task.Arrive, 9, 128)
	for _, id := range []task.ID{2, 4, 6, 8} {
		ev(task.Depart, id, 64)
	}
	ev(task.Depart, 9, 128)
	for _, a := range []*Periodic{NewPeriodic(m, 2, DecreasingSize), NewLazy(m, 2, DecreasingSize)} {
		a.ApplyBatch(batch)
		const runs = 50
		before := a.ReallocStats().Reallocations
		allocs := testing.AllocsPerRun(runs, func() { a.ApplyBatch(batch) })
		if n := a.ReallocStats().Reallocations - before; n < runs+1 {
			t.Fatalf("%s: %d reallocations over %d batches, want one per batch", a.Name(), n, runs+1)
		}
		if allocs != 0 {
			t.Errorf("%s: %v allocations per reallocating batch, want 0", a.Name(), allocs)
		}
	}
}

// BenchmarkReallocate times procedure A_R alone: A_M reallocating about
// 100 active tasks at n=256 outside a batch. Run with -benchmem.
func BenchmarkReallocate(b *testing.B) {
	m := tree.MustNew(256)
	p := NewPeriodic(m, 4, DecreasingSize)
	rng := rand.New(rand.NewSource(1))
	for id := task.ID(1); id <= 100; id++ {
		p.Arrive(task.Task{ID: id, Size: 1 << rng.Intn(7)})
	}
	p.reallocate()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.reallocate()
	}
}
