package core

import (
	"bytes"
	"cmp"
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"

	"partalloc/internal/copies"
	"partalloc/internal/errs"
	"partalloc/internal/mathx"
	"partalloc/internal/task"
	"partalloc/internal/tree"
)

// runSequence drives an allocator through a sequence and returns the
// maximum load observed over all event times.
func runSequence(a Allocator, seq task.Sequence) int {
	max := 0
	for _, e := range seq.Events {
		switch e.Kind {
		case task.Arrive:
			a.Arrive(task.Task{ID: e.Task, Size: e.Size})
		case task.Depart:
			a.Depart(e.Task)
		}
		if l := a.MaxLoad(); l > max {
			max = l
		}
	}
	return max
}

// randomSequence builds a valid random sequence on an N-PE machine.
func randomSequence(rng *rand.Rand, n, steps int) task.Sequence {
	b := task.NewBuilder()
	maxExp := mathx.Log2(n)
	for i := 0; i < steps; i++ {
		act := b.Active()
		if len(act) > 0 && rng.Intn(2) == 0 {
			b.Depart(act[rng.Intn(len(act))])
		} else {
			b.Arrive(1 << rng.Intn(maxExp+1))
		}
	}
	return b.Sequence()
}

func allFactories(seed int64) []Factory {
	return []Factory{
		GreedyFactory(),
		BasicFactory(),
		ConstantFactory(),
		PeriodicFactory(1),
		PeriodicFactory(2),
		PeriodicFactory(3),
		PeriodicFactory(100),
		RandomFactory(seed),
	}
}

// --- Generic allocator contract -----------------------------------------

func TestAllocatorContract(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, f := range allFactories(5) {
		f := f
		t.Run(f.Name, func(t *testing.T) {
			for trial := 0; trial < 5; trial++ {
				n := 1 << (2 + rng.Intn(5))
				m := tree.MustNew(n)
				a := f.New(m)
				seq := randomSequence(rng, n, 300)
				active := make(map[task.ID]int)
				for _, e := range seq.Events {
					switch e.Kind {
					case task.Arrive:
						v := a.Arrive(task.Task{ID: e.Task, Size: e.Size})
						if m.Size(v) != e.Size {
							t.Fatalf("%s placed size-%d task on size-%d submachine",
								f.Name, e.Size, m.Size(v))
						}
						active[e.Task] = e.Size
					case task.Depart:
						a.Depart(e.Task)
						delete(active, e.Task)
					}
					if a.Active() != len(active) {
						t.Fatalf("%s Active() = %d, want %d", f.Name, a.Active(), len(active))
					}
					// Placement consistency for all active tasks.
					for id := range active {
						if _, ok := a.Placement(id); !ok {
							t.Fatalf("%s lost placement of active task %d", f.Name, id)
						}
					}
					// PE loads consistent with placements.
					loads := make([]int, n)
					for id := range active {
						v, _ := a.Placement(id)
						lo, hi := m.PERange(v)
						for p := lo; p < hi; p++ {
							loads[p]++
						}
					}
					got := a.PELoads()
					maxLoad := 0
					for p := range loads {
						if loads[p] != got[p] {
							t.Fatalf("%s PE %d load %d, want %d", f.Name, p, got[p], loads[p])
						}
						if loads[p] > maxLoad {
							maxLoad = loads[p]
						}
					}
					if a.MaxLoad() != maxLoad {
						t.Fatalf("%s MaxLoad %d, want %d", f.Name, a.MaxLoad(), maxLoad)
					}
				}
			}
		})
	}
}

func TestDepartUnknownPanics(t *testing.T) {
	for _, f := range allFactories(1) {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: Depart of unknown task did not panic", f.Name)
				}
			}()
			f.New(tree.MustNew(8)).Depart(42)
		}()
	}
}

func TestDuplicateArrivalPanics(t *testing.T) {
	for _, f := range allFactories(1) {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: duplicate arrival did not panic", f.Name)
				}
			}()
			a := f.New(tree.MustNew(8))
			a.Arrive(task.Task{ID: 1, Size: 2})
			a.Arrive(task.Task{ID: 1, Size: 2})
		}()
	}
}

// TestRejectedArrivalLeavesState checks that an arrival rejected for a
// duplicate ID, a size above N or a size that is not a power of two (zero
// and the most negative size among them) changes nothing: not the active
// count, the resident task's placement, the PE loads, nor a single
// snapshot byte.
func TestRejectedArrivalLeavesState(t *testing.T) {
	rejects := []struct {
		t    task.Task
		want error
	}{
		{task.Task{ID: 1, Size: 2}, errs.ErrDuplicateTask},
		{task.Task{ID: 2, Size: 32}, errs.ErrTaskTooLarge},
		{task.Task{ID: 3, Size: 3}, errs.ErrNotPowerOfTwo},
		{task.Task{ID: 4, Size: 0}, errs.ErrNotPowerOfTwo},
		{task.Task{ID: 5, Size: math.MinInt64}, errs.ErrNotPowerOfTwo},
	}
	for _, tc := range chkConfigs() {
		a := tc.build(tree.MustNew(16))
		a.Arrive(task.Task{ID: 1, Size: 2})
		for _, r := range rejects {
			active, snap, loads := a.Active(), a.(Checkpointable).Snapshot(), a.PELoads()
			v, ok := a.Placement(1)
			err := arrivePanic(a, r.t)
			if !errors.Is(err, r.want) {
				t.Fatalf("%s: Arrive(%+v) panicked with %v, want %v", tc.name, r.t, err, r.want)
			}
			if a.Active() != active {
				t.Errorf("%s: Arrive(%+v): Active %d, was %d", tc.name, r.t, a.Active(), active)
			}
			if v2, ok2 := a.Placement(1); v2 != v || ok2 != ok {
				t.Errorf("%s: Arrive(%+v): task 1 at (%d, %v), was (%d, %v)", tc.name, r.t, v2, ok2, v, ok)
			}
			if !slices.Equal(a.PELoads(), loads) {
				t.Errorf("%s: Arrive(%+v): PELoads %v, was %v", tc.name, r.t, a.PELoads(), loads)
			}
			if !bytes.Equal(a.(Checkpointable).Snapshot(), snap) {
				t.Errorf("%s: Arrive(%+v) changed the snapshot bytes", tc.name, r.t)
			}
		}
	}
}

// arrivePanic calls a.Arrive(t) and returns the error it panicked with,
// or nil if it returned.
func arrivePanic(a Allocator, t task.Task) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err, _ = r.(error)
		}
	}()
	a.Arrive(t)
	return nil
}

// --- Figure 1 (§2) -------------------------------------------------------

func TestFigure1GreedyLoad2(t *testing.T) {
	m := tree.MustNew(4)
	g := NewGreedy(m)
	seq := task.Figure1Sequence()
	got := runSequence(g, seq)
	if got != 2 {
		t.Fatalf("A_G load on σ* = %d, want 2 (paper Figure 1)", got)
	}
	// And the final placement of t5 overlaps a PE holding t1 or t3.
	if g.MaxLoad() != 2 {
		t.Fatalf("final A_G load = %d, want 2", g.MaxLoad())
	}
}

func TestFigure1OneReallocationLoad1(t *testing.T) {
	// The paper (§2) observes that *a* 1-reallocation algorithm achieves
	// load 1 on σ* by reallocating at t5's arrival. Eager A_M spends its
	// reallocation earlier (at t4, when the threshold is reached) and ends
	// at load 2 — still within Theorem 4.2's (d+1)L* = 2. The lazy variant
	// holds the budget until the new copy would be needed and realizes the
	// paper's example exactly.
	m := tree.MustNew(4)
	seq := task.Figure1Sequence()

	lazy := NewLazy(m, 1, DecreasingSize)
	if got := runSequence(lazy, seq); got != 1 {
		t.Fatalf("A_M-lazy(d=1) load on σ* = %d, want 1 (paper §2)", got)
	}
	if lazy.ReallocStats().Reallocations != 1 {
		t.Fatalf("A_M-lazy(d=1) reallocated %d times on σ*, want 1",
			lazy.ReallocStats().Reallocations)
	}

	eager := NewPeriodic(m, 1, DecreasingSize)
	if got := runSequence(eager, seq); got > 2 {
		t.Fatalf("A_M(d=1) load on σ* = %d, exceeds Theorem 4.2 bound 2", got)
	}
}

// --- Theorem 3.1: A_C achieves the optimal load --------------------------

func TestConstantAchievesOptimal(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 40; trial++ {
		n := 1 << (1 + rng.Intn(7))
		m := tree.MustNew(n)
		a := NewConstant(m)
		seq := randomSequence(rng, n, 400)
		got := runSequence(a, seq)
		want := seq.OptimalLoad(n)
		if got != want {
			t.Fatalf("trial %d N=%d: A_C load %d, optimal %d", trial, n, got, want)
		}
	}
}

// --- Lemma 1: procedure A_R achieves ⌈S/N⌉ on any task set ---------------

// TestReallocProcedureLemma1 runs procedure A_R on random task sets.
// Under DecreasingSize it must use ⌈S/N⌉ copies and leave no vacancy
// except in the last (Lemma 1). Under either order every task must land
// where a first-fit scan over fresh copies, taking the tasks in that
// order, puts it. Every fourth set draws 128 to 227 tasks of sizes 1 and
// 2 only, so each size class is long.
func TestReallocProcedureLemma1(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	bySize := func(a, b task.Task) int { return cmp.Or(cmp.Compare(b.Size, a.Size), cmp.Compare(a.ID, b.ID)) }
	byID := func(a, b task.Task) int { return cmp.Compare(a.ID, b.ID) }
	for trial := 0; trial < 60; trial++ {
		n := 1 << (1 + rng.Intn(7))
		m := tree.MustNew(n)
		count, maxLog := rng.Intn(50)+1, mathx.Log2(n)
		if trial%4 == 0 {
			count, maxLog = 128+rng.Intn(100), 1
		}
		var tasks []task.Task
		total := 0
		for i := 0; i < count; i++ {
			size := 1 << rng.Intn(maxLog+1)
			tasks = append(tasks, task.Task{ID: task.ID(i + 1), Size: size})
			total += size
		}
		list, placed := reallocateAll(m, tasks, DecreasingSize)
		want := mathx.CeilDiv(total, n)
		if list.Len() != want {
			t.Fatalf("trial %d: A_R used %d copies, want ⌈%d/%d⌉ = %d",
				trial, list.Len(), total, n, want)
		}
		// Claim 1 of Lemma 1: no vacancy except possibly in the last copy.
		for i := 0; i < list.Len()-1; i++ {
			if list.At(i).OccupiedPEs() != n {
				t.Fatalf("trial %d: copy %d not full (%d/%d PEs)",
					trial, i, list.At(i).OccupiedPEs(), n)
			}
		}
		checkFirstFit(t, m, tasks, placed, bySize)
		_, placed = reallocateAll(m, tasks, ArrivalOrder)
		checkFirstFit(t, m, tasks, placed, byID)
	}
}

// checkFirstFit fails t unless placed puts every task where a first-fit
// scan over fresh copies puts it, taking the tasks in the given order.
func checkFirstFit(t *testing.T, m *tree.Machine, tasks []task.Task, placed map[task.ID]placementRec, order func(a, b task.Task) int) {
	t.Helper()
	if len(placed) != len(tasks) {
		t.Fatalf("%d placements for %d tasks", len(placed), len(tasks))
	}
	sorted := slices.Clone(tasks)
	slices.SortFunc(sorted, order)
	var ref []*copies.Copy
	for _, tk := range sorted {
		ci := 0
		for ; ci < len(ref); ci++ {
			if _, ok := ref[ci].FindVacant(tk.Size); ok {
				break
			}
		}
		if ci == len(ref) {
			ref = append(ref, copies.NewCopy(m))
		}
		v, _ := ref[ci].FindVacant(tk.Size)
		ref[ci].Occupy(v)
		if got := placed[tk.ID]; got.copyIdx != ci || got.node != v {
			t.Fatalf("task %d (size %d) placed at copy %d node %d, first fit gives copy %d node %d",
				tk.ID, tk.Size, got.copyIdx, got.node, ci, v)
		}
	}
}

func TestReallocOrderIrrelevantForFreshSets(t *testing.T) {
	// Ablation finding: on a *fresh* task set (a reallocation has no
	// already-departed tasks), first-fit achieves ⌈S/N⌉ copies in ANY
	// order — the Claim-1 argument of Lemma 2 needs no sorting when there
	// are no departures. The decreasing-size sort of A_R is therefore a
	// proof device, not a packing necessity; we assert the equality that
	// 4000 random instances exhibit.
	m := tree.MustNew(8)
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 4000; trial++ {
		var tasks []task.Task
		total := 0
		for i := 0; i < rng.Intn(8)+2; i++ {
			size := 1 << rng.Intn(4)
			tasks = append(tasks, task.Task{ID: task.ID(i + 1), Size: size})
			total += size
		}
		want := mathx.CeilDiv(total, 8)
		listA, _ := reallocateAll(m, tasks, ArrivalOrder)
		if listA.Len() != want {
			t.Fatalf("trial %d: arrival-order used %d copies, want %d (tasks %v)",
				trial, listA.Len(), want, tasks)
		}
		listD, _ := reallocateAll(m, tasks, DecreasingSize)
		if listD.Len() != want {
			t.Fatalf("trial %d: decreasing-size used %d copies, want %d", trial, listD.Len(), want)
		}
	}
}

// --- Lemma 2: A_B load ≤ ⌈S/N⌉ (S = total arrival size) ------------------

func TestBasicLemma2(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 40; trial++ {
		n := 1 << (1 + rng.Intn(7))
		m := tree.MustNew(n)
		a := NewBasic(m)
		seq := randomSequence(rng, n, 300)
		got := runSequence(a, seq)
		bound := int(mathx.CeilDiv64(seq.TotalArrivalSize(), int64(n)))
		if got > bound {
			t.Fatalf("trial %d N=%d: A_B load %d > ⌈S/N⌉ = %d", trial, n, got, bound)
		}
		if a.Copies() > bound {
			t.Fatalf("trial %d: A_B created %d copies > %d", trial, a.Copies(), bound)
		}
	}
}

// --- Theorem 4.1: A_G load ≤ ⌈½(log N + 1)⌉ · L* -------------------------

func TestGreedyTheorem41(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	for trial := 0; trial < 40; trial++ {
		n := 1 << (1 + rng.Intn(8))
		m := tree.MustNew(n)
		a := NewGreedy(m)
		seq := randomSequence(rng, n, 400)
		got := runSequence(a, seq)
		lstar := seq.OptimalLoad(n)
		bound := mathx.GreedyBound(n) * lstar
		if got > bound {
			t.Fatalf("trial %d N=%d: A_G load %d > bound %d (L*=%d)",
				trial, n, got, bound, lstar)
		}
	}
}

// --- Theorem 4.2: A_M load ≤ min{d+1, ⌈½(log N+1)⌉} · L* -----------------

func TestPeriodicTheorem42(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for trial := 0; trial < 25; trial++ {
		n := 1 << (2 + rng.Intn(6))
		m := tree.MustNew(n)
		seq := randomSequence(rng, n, 300)
		lstar := seq.OptimalLoad(n)
		for _, d := range []int{0, 1, 2, 3, 5, 8, 100} {
			a := NewPeriodic(m, d, DecreasingSize)
			got := runSequence(a, seq)
			bound := mathx.DetUpperFactor(n, d) * lstar
			if got > bound {
				t.Fatalf("trial %d N=%d d=%d: A_M load %d > bound %d (L*=%d)",
					trial, n, d, got, bound, lstar)
			}
		}
	}
}

// Stronger form used in the proof of Theorem 4.2: in copy mode the load is
// at most L* + d.
func TestPeriodicAdditiveBound(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for trial := 0; trial < 25; trial++ {
		n := 1 << (3 + rng.Intn(5))
		m := tree.MustNew(n)
		seq := randomSequence(rng, n, 300)
		lstar := seq.OptimalLoad(n)
		for d := 0; d < mathx.GreedyBound(n); d++ {
			a := NewPeriodic(m, d, DecreasingSize)
			if a.UsesGreedy() {
				t.Fatalf("d=%d below bound should use copies", d)
			}
			got := runSequence(a, seq)
			if got > lstar+d {
				t.Fatalf("trial %d N=%d d=%d: load %d > L*+d = %d",
					trial, n, d, got, lstar+d)
			}
		}
	}
}

func TestPeriodicGreedyDelegation(t *testing.T) {
	m := tree.MustNew(1024) // greedy bound = 6
	if !NewPeriodic(m, 6, DecreasingSize).UsesGreedy() {
		t.Error("d=6 should delegate to greedy on N=1024")
	}
	if !NewPeriodic(m, -1, DecreasingSize).UsesGreedy() {
		t.Error("d=∞ should delegate to greedy")
	}
	if NewPeriodic(m, 5, DecreasingSize).UsesGreedy() {
		t.Error("d=5 should use copies on N=1024")
	}
	// Delegated instance behaves exactly like A_G.
	rng := rand.New(rand.NewSource(81))
	seq := randomSequence(rng, 1024, 500)
	am := NewPeriodic(m, 6, DecreasingSize)
	ag := NewGreedy(m)
	for _, e := range seq.Events {
		switch e.Kind {
		case task.Arrive:
			v1 := am.Arrive(task.Task{ID: e.Task, Size: e.Size})
			v2 := ag.Arrive(task.Task{ID: e.Task, Size: e.Size})
			if v1 != v2 {
				t.Fatalf("delegated A_M placed %d, A_G placed %d", v1, v2)
			}
		case task.Depart:
			am.Depart(e.Task)
			ag.Depart(e.Task)
		}
	}
	if am.ReallocStats().Reallocations != 0 {
		t.Error("greedy-mode A_M must never reallocate")
	}
}

// --- Theorem 5.1 (empirical): A_Rand expected load ≤ (3logN/loglogN+1)L* --

func TestRandomTheorem51Empirical(t *testing.T) {
	// For each N, run many seeds of a size-1 saturation workload (the
	// hardest case for oblivious placement: s(σ) = N so L* = 1) and check
	// the *mean* max load against the theorem's bound. Any single run can
	// exceed it; the mean must not.
	for _, n := range []int{64, 256, 1024} {
		m := tree.MustNew(n)
		b := task.NewBuilder()
		for i := 0; i < n; i++ {
			b.Arrive(1)
		}
		seq := b.Sequence()
		lstar := seq.OptimalLoad(n)
		if lstar != 1 {
			t.Fatalf("workload construction: L* = %d", lstar)
		}
		logN := float64(mathx.Log2(n))
		bound := (3*logN/math.Log2(logN) + 1) * float64(lstar)
		sum := 0.0
		const seeds = 50
		for s := int64(0); s < seeds; s++ {
			a := NewRandom(m, s)
			sum += float64(runSequence(a, seq))
		}
		mean := sum / seeds
		if mean > bound {
			t.Errorf("N=%d: mean max load %.2f > theorem bound %.2f", n, mean, bound)
		}
		// And randomization must beat nothing: load ≥ L*.
		if mean < 1 {
			t.Errorf("N=%d: mean %f below optimal", n, mean)
		}
	}
}
