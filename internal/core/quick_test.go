package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"partalloc/internal/mathx"
	"partalloc/internal/task"
	"partalloc/internal/tree"
)

// Property (Theorem 3.1 as a quick property): A_C achieves exactly the
// optimal load on any generated sequence.
func TestQuickConstantOptimal(t *testing.T) {
	f := func(seed int64, levelsRaw, steps uint8) bool {
		levels := int(levelsRaw)%7 + 1
		n := 1 << levels
		rng := rand.New(rand.NewSource(seed))
		seq := randomSequence(rng, n, int(steps)%200+1)
		a := NewConstant(tree.MustNew(n))
		got := runSequence(a, seq)
		return got == seq.OptimalLoad(n)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

// Property (Theorem 4.2): A_M(d) stays within min{d+1, ⌈½(logN+1)⌉}·L*
// for quick-drawn d and sequences.
func TestQuickPeriodicBound(t *testing.T) {
	f := func(seed int64, levelsRaw, steps, dRaw uint8) bool {
		levels := int(levelsRaw)%6 + 2
		n := 1 << levels
		d := int(dRaw) % 8
		rng := rand.New(rand.NewSource(seed))
		seq := randomSequence(rng, n, int(steps)%200+1)
		a := NewPeriodic(tree.MustNew(n), d, DecreasingSize)
		got := runSequence(a, seq)
		lstar := seq.OptimalLoad(n)
		return got <= mathx.DetUpperFactor(n, d)*lstar
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

// Property: every allocator keeps Active() equal to arrivals minus
// departures, and MaxLoad is zero exactly when nothing is active.
func TestQuickActiveAccounting(t *testing.T) {
	factories := allFactories(3)
	f := func(seed int64, steps uint8, which uint8) bool {
		fy := factories[int(which)%len(factories)]
		n := 32
		a := fy.New(tree.MustNew(n))
		rng := rand.New(rand.NewSource(seed))
		b := task.NewBuilder()
		for i := 0; i < int(steps)%150+1; i++ {
			act := b.Active()
			if len(act) > 0 && rng.Intn(2) == 0 {
				id := act[rng.Intn(len(act))]
				b.Depart(id)
				a.Depart(id)
			} else {
				size := 1 << rng.Intn(6)
				id := b.Arrive(size)
				a.Arrive(task.Task{ID: id, Size: size})
			}
			if a.Active() != len(b.Active()) {
				return false
			}
			if (a.MaxLoad() == 0) != (len(b.Active()) == 0) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: A_R's output (reallocateAll) always covers every task exactly once
// with correctly-sized placements, for any task multiset.
func TestQuickReallocateAllWellFormed(t *testing.T) {
	f := func(seed int64, count uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		m := tree.MustNew(64)
		var tasks []task.Task
		for i := 0; i < int(count)%40+1; i++ {
			tasks = append(tasks, task.Task{ID: task.ID(i + 1), Size: 1 << rng.Intn(7)})
		}
		order := DecreasingSize
		if seed%2 == 0 {
			order = ArrivalOrder
		}
		list, placed := reallocateAll(m, tasks, order)
		if len(placed) != len(tasks) {
			return false
		}
		total := 0
		for _, tk := range tasks {
			rec, ok := placed[tk.ID]
			if !ok || m.Size(rec.node) != tk.Size {
				return false
			}
			total += tk.Size
		}
		return list.Len() == mathx.CeilDiv(total, 64)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}
