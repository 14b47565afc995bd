package sim

import (
	"math/rand"
	"testing"

	"partalloc/internal/core"
	"partalloc/internal/invariant"
	"partalloc/internal/task"
	"partalloc/internal/tree"
	"partalloc/internal/workload"
)

// TestStepSizeLedgerMatchesPerEvent cuts random streams at random batch
// boundaries and applies each batch twice: through the batch path, whose
// size ledger comes back from the allocator's batch loop, and through
// the audited per-event path, which grows the ledger one event at a
// time. After every batch, ActiveSize, MaxActiveSize and LStar must
// agree. A_G has no BatchApplier, so it checks core.ApplyEvents' ledger.
func TestStepSizeLedgerMatchesPerEvent(t *testing.T) {
	for _, tc := range []struct {
		name string
		make func(m *tree.Machine) core.Allocator
	}{
		{"A_Rand", func(m *tree.Machine) core.Allocator { return core.NewRandom(m, 9) }},
		{"A_B", func(m *tree.Machine) core.Allocator { return core.NewBasic(m) }},
		{"A_M(2)", func(m *tree.Machine) core.Allocator { return core.NewPeriodic(m, 2, core.DecreasingSize) }},
		{"A_M-lazy(2)", func(m *tree.Machine) core.Allocator { return core.NewLazy(m, 2, core.DecreasingSize) }},
		{"A_G", func(m *tree.Machine) core.Allocator { return core.NewGreedy(m) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for seed := int64(1); seed <= 4; seed++ {
				n := 16 << seed
				stream := workload.Poisson(workload.Config{N: n, Arrivals: 400, Seed: seed}).Events
				batch, err := NewStep(tc.make(tree.MustNew(n)), nil, nil, false)
				if err != nil {
					t.Fatal(err)
				}
				a := tc.make(tree.MustNew(n))
				serial, err := NewStep(a, invariant.New(a.Machine()), nil, false)
				if err != nil {
					t.Fatal(err)
				}
				rng := rand.New(rand.NewSource(seed))
				for off := 0; off < len(stream); {
					end := min(len(stream), off+rng.Intn(48))
					batch.Apply(stream[off:end])
					serial.Apply(stream[off:end])
					if batch.ActiveSize != serial.ActiveSize || batch.MaxActiveSize != serial.MaxActiveSize ||
						batch.LStar() != serial.LStar() {
						t.Fatalf("seed %d, events [%d,%d): batch ledger (active %d, max %d, L* %d), per-event (%d, %d, %d)",
							seed, off, end, batch.ActiveSize, batch.MaxActiveSize, batch.LStar(),
							serial.ActiveSize, serial.MaxActiveSize, serial.LStar())
					}
					off = end
				}
			}
		})
	}
}

// TestStepSizeLedgerPeaksInsideBatch applies one batch that arrives a
// whole-machine task and departs it again. Its net size change is 0, but
// the active size reached N inside it, so L* is 1. A ledger that took
// the net change for the peak would read 0.
func TestStepSizeLedgerPeaksInsideBatch(t *testing.T) {
	const n = 8
	evs := []task.Event{
		{Kind: task.Arrive, Task: 1, Size: n},
		{Kind: task.Depart, Task: 1, Size: n},
	}
	for _, a := range []core.Allocator{core.NewRandom(tree.MustNew(n), 1), core.NewGreedy(tree.MustNew(n))} {
		s, err := NewStep(a, nil, nil, false)
		if err != nil {
			t.Fatal(err)
		}
		s.Apply(evs)
		if s.ActiveSize != 0 || s.MaxActiveSize != n || s.LStar() != 1 {
			t.Errorf("%s: active %d, max %d, L* %d after [arrive %d, depart %d]; want 0, %d, 1",
				a.Name(), s.ActiveSize, s.MaxActiveSize, s.LStar(), n, n, n)
		}
	}
}
