package core

import (
	"math/rand"
	"testing"

	"partalloc/internal/mathx"
	"partalloc/internal/task"
	"partalloc/internal/tree"
)

func lazyFactories() []Factory {
	return []Factory{LazyFactory(0), LazyFactory(1), LazyFactory(2), LazyFactory(5)}
}

func TestLazyAllocatorContract(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, f := range lazyFactories() {
		f := f
		t.Run(f.Name, func(t *testing.T) {
			n := 1 << (2 + rng.Intn(5))
			m := tree.MustNew(n)
			a := f.New(m)
			seq := randomSequence(rng, n, 400)
			active := make(map[task.ID]int)
			for _, e := range seq.Events {
				switch e.Kind {
				case task.Arrive:
					v := a.Arrive(task.Task{ID: e.Task, Size: e.Size})
					if m.Size(v) != e.Size {
						t.Fatalf("placed size-%d task on size-%d submachine", e.Size, m.Size(v))
					}
					active[e.Task] = e.Size
				case task.Depart:
					a.Depart(e.Task)
					delete(active, e.Task)
				}
				loads := make([]int, n)
				for id := range active {
					v, ok := a.Placement(id)
					if !ok {
						t.Fatalf("lost placement of %d", id)
					}
					lo, hi := m.PERange(v)
					for p := lo; p < hi; p++ {
						loads[p]++
					}
				}
				got := a.PELoads()
				for p := range loads {
					if loads[p] != got[p] {
						t.Fatalf("PE %d load %d, want %d", p, got[p], loads[p])
					}
				}
			}
		})
	}
}

// A_M-lazy satisfies the same additive bound L* + d as eager A_M (see
// NewLazy's doc comment for why), hence the Theorem 4.2 multiplicative bound.
func TestLazyAdditiveBound(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	for trial := 0; trial < 25; trial++ {
		n := 1 << (3 + rng.Intn(5))
		m := tree.MustNew(n)
		seq := randomSequence(rng, n, 300)
		lstar := seq.OptimalLoad(n)
		for d := 0; d <= mathx.GreedyBound(n); d++ {
			a := NewLazy(m, d, DecreasingSize)
			got := runSequence(a, seq)
			if got > lstar+d {
				t.Fatalf("trial %d N=%d d=%d: lazy load %d > L*+d = %d",
					trial, n, d, got, lstar+d)
			}
		}
	}
}

// A_M-lazy with d = 0 can always reallocate, so like A_C it achieves L*.
func TestLazyZeroAchievesOptimal(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	for trial := 0; trial < 25; trial++ {
		n := 1 << (1 + rng.Intn(7))
		m := tree.MustNew(n)
		a := NewLazy(m, 0, DecreasingSize)
		seq := randomSequence(rng, n, 300)
		got := runSequence(a, seq)
		want := seq.OptimalLoad(n)
		if got != want {
			t.Fatalf("trial %d N=%d: lazy(0) load %d, optimal %d", trial, n, got, want)
		}
	}
}

// A_M-lazy never reallocates more often than it is entitled to: consecutive
// reallocations are at least d·N arrived size apart.
func TestLazyRespectsBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(93))
	n := 64
	m := tree.MustNew(n)
	for _, d := range []int{1, 2, 3} {
		a := NewLazy(m, d, DecreasingSize)
		b := task.NewBuilder()
		var arrivedSinceRealloc int64
		prevReallocs := 0
		for i := 0; i < 3000; i++ {
			act := b.Active()
			if len(act) > 0 && rng.Intn(2) == 0 {
				id := act[rng.Intn(len(act))]
				b.Depart(id)
				a.Depart(id)
			} else {
				size := 1 << rng.Intn(7)
				id := b.Arrive(size)
				arrivedSinceRealloc += int64(size)
				a.Arrive(task.Task{ID: id, Size: size})
				if r := a.ReallocStats().Reallocations; r > prevReallocs {
					if r != prevReallocs+1 {
						t.Fatalf("two reallocations in one arrival")
					}
					if arrivedSinceRealloc < int64(d)*int64(n) {
						t.Fatalf("d=%d: reallocated after only %d arrived size (< %d)",
							d, arrivedSinceRealloc, d*n)
					}
					arrivedSinceRealloc = 0
					prevReallocs = r
				}
			}
		}
		if prevReallocs == 0 {
			t.Fatalf("d=%d: lazy never reallocated in 3000 events; test vacuous", d)
		}
	}
}

// A_M-lazy reallocates no more often than eager A_M on identical input.
func TestLazyReallocatesAtMostAsOftenAsEager(t *testing.T) {
	rng := rand.New(rand.NewSource(103))
	for trial := 0; trial < 10; trial++ {
		n := 128
		m := tree.MustNew(n)
		seq := randomSequence(rng, n, 2000)
		for _, d := range []int{1, 2, 3} {
			lazy := NewLazy(m, d, DecreasingSize)
			eager := NewPeriodic(m, d, DecreasingSize)
			runSequence(lazy, seq)
			runSequence(eager, seq)
			lr := lazy.ReallocStats().Reallocations
			er := eager.ReallocStats().Reallocations
			if lr > er {
				t.Errorf("trial %d d=%d: lazy reallocated %d > eager %d", trial, d, lr, er)
			}
		}
	}
}
