package partalloc_test

import (
	"testing"

	"partalloc"
)

// Stress tests exercise the theorem bounds at machine and sequence scales
// well beyond the unit tests. They are skipped under -short.

func TestStressBoundsAtScale(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test")
	}
	const n = 1 << 14
	seq := partalloc.SaturationWorkload(partalloc.SaturationConfig{
		N: n, Events: 60000, Seed: 1, Churn: 0.25, Target: 2.0,
	})
	lstar := seq.OptimalLoad(n)
	if lstar < 2 {
		t.Fatalf("workload too light: L* = %d", lstar)
	}

	constant := partalloc.Simulate(partalloc.MustNew(partalloc.AlgoConstant, partalloc.MustNewMachine(n)), seq, partalloc.SimOptions{})
	if constant.MaxLoad != lstar {
		t.Errorf("A_C at N=%d: load %d != L* %d", n, constant.MaxLoad, lstar)
	}

	greedy := partalloc.Simulate(partalloc.MustNew(partalloc.AlgoGreedy, partalloc.MustNewMachine(n)), seq, partalloc.SimOptions{})
	if greedy.MaxLoad > partalloc.GreedyBound(n)*lstar {
		t.Errorf("A_G at N=%d: load %d exceeds bound", n, greedy.MaxLoad)
	}

	for _, d := range []int{1, 3, 6} {
		am := partalloc.Simulate(
			partalloc.MustNew(partalloc.AlgoPeriodic, partalloc.MustNewMachine(n), partalloc.WithD(d)),
			seq, partalloc.SimOptions{})
		if am.MaxLoad > partalloc.UpperBound(n, d)*lstar {
			t.Errorf("A_M(d=%d) at N=%d: load %d exceeds bound %d·%d",
				d, n, am.MaxLoad, partalloc.UpperBound(n, d), lstar)
		}
	}
}

func TestStressAdversaryAtScale(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test")
	}
	const n = 1 << 20 // 20 phases against greedy
	res := partalloc.RunAdversary(partalloc.MustNew(partalloc.AlgoGreedy, partalloc.MustNewMachine(n)), -1)
	if res.OptimalLoad != 1 {
		t.Fatalf("L* = %d", res.OptimalLoad)
	}
	if res.FinalLoad < res.LowerBound {
		t.Errorf("forced load %d below bound %d", res.FinalLoad, res.LowerBound)
	}
	// At d=∞ the adversary should meet the greedy cap exactly, as it does
	// at small N (observed: the bounds are tight for A_G).
	if res.FinalLoad != partalloc.GreedyBound(n) {
		t.Errorf("forced load %d, greedy cap %d — tightness regressed",
			res.FinalLoad, partalloc.GreedyBound(n))
	}
}

func TestStressClosedLoopAtScale(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test")
	}
	const n = 1 << 10
	w := partalloc.RandomSchedWorkload(partalloc.SchedWorkloadConfig{N: n, Jobs: 3000, Seed: 2})
	res := partalloc.Execute(partalloc.MustNew(partalloc.AlgoLazy, partalloc.MustNewMachine(n), partalloc.WithD(2)), w)
	if len(res.Jobs) != 3000 {
		t.Fatalf("finished %d jobs", len(res.Jobs))
	}
	if res.MeanSlowdown < 1 {
		t.Fatalf("mean slowdown %g < 1", res.MeanSlowdown)
	}
}
