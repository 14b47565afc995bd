package partalloc_test

import (
	"testing"

	"partalloc"
)

// The facade must expose a working end-to-end path: build machine, build
// workload, run every algorithm, check the paper's bounds through the
// public API only.
func TestPublicAPIEndToEnd(t *testing.T) {
	const n = 64
	m := partalloc.MustNewMachine(n)
	seq := partalloc.PoissonWorkload(partalloc.WorkloadConfig{N: n, Arrivals: 400, Seed: 42})
	lstar := seq.OptimalLoad(n)

	algos := map[string]partalloc.Allocator{
		"greedy":   partalloc.MustNew(partalloc.AlgoGreedy, m),
		"basic":    partalloc.MustNew(partalloc.AlgoBasic, partalloc.MustNewMachine(n)),
		"constant": partalloc.MustNew(partalloc.AlgoConstant, partalloc.MustNewMachine(n)),
		"periodic": partalloc.MustNew(partalloc.AlgoPeriodic, partalloc.MustNewMachine(n), partalloc.WithD(2)),
		"lazy":     partalloc.MustNew(partalloc.AlgoLazy, partalloc.MustNewMachine(n), partalloc.WithD(2)),
		"random":   partalloc.MustNew(partalloc.AlgoRandom, partalloc.MustNewMachine(n), partalloc.WithSeed(7)),
	}
	for name, a := range algos {
		res := partalloc.Simulate(a, seq, partalloc.SimOptions{})
		if res.LStar != lstar {
			t.Errorf("%s: LStar %d, want %d", name, res.LStar, lstar)
		}
		if res.MaxLoad < lstar {
			t.Errorf("%s: load %d below optimal %d", name, res.MaxLoad, lstar)
		}
		switch name {
		case "constant":
			if res.MaxLoad != lstar {
				t.Errorf("constant: load %d, want optimal %d", res.MaxLoad, lstar)
			}
		case "greedy":
			if res.MaxLoad > partalloc.GreedyBound(n)*lstar {
				t.Errorf("greedy exceeded Theorem 4.1 bound")
			}
		case "periodic", "lazy":
			if res.MaxLoad > partalloc.UpperBound(n, 2)*lstar {
				t.Errorf("%s exceeded Theorem 4.2 bound", name)
			}
		}
	}
}

func TestPublicBounds(t *testing.T) {
	if partalloc.GreedyBound(1024) != 6 {
		t.Error("GreedyBound(1024) != 6")
	}
	if partalloc.UpperBound(1024, 2) != 3 || partalloc.LowerBound(1024, 2) != 2 {
		t.Error("bounds for d=2 wrong")
	}
	if partalloc.UpperBound(1024, -1) != 6 || partalloc.LowerBound(1024, -1) != 6 {
		t.Error("bounds for d=inf wrong")
	}
}

func TestPublicAdversary(t *testing.T) {
	m := partalloc.MustNewMachine(256)
	res := partalloc.RunAdversary(partalloc.MustNew(partalloc.AlgoGreedy, m), -1)
	if res.OptimalLoad != 1 {
		t.Fatalf("adversary L* = %d", res.OptimalLoad)
	}
	if res.FinalLoad < res.LowerBound {
		t.Fatalf("adversary failed to force bound: %d < %d", res.FinalLoad, res.LowerBound)
	}
}

func TestPublicSigmaR(t *testing.T) {
	seq, stats := partalloc.SigmaR(partalloc.SigmaRConfig{N: 1 << 12, Seed: 3})
	if err := seq.Validate(1 << 12); err != nil {
		t.Fatal(err)
	}
	if stats.OptimalLoad != 1 {
		t.Fatalf("σ_r L* = %d", stats.OptimalLoad)
	}
}

func TestPublicTopologies(t *testing.T) {
	m := partalloc.MustNewMachine(16)
	for _, name := range partalloc.TopologyNames() {
		top, err := partalloc.NewTopology(name, 16)
		if err != nil {
			t.Fatal(err)
		}
		if c := partalloc.MigrationCost(top, m, 8, 9); c <= 0 {
			t.Errorf("%s: migration cost %d", name, c)
		}
	}
}

func TestPublicSequenceBuilder(t *testing.T) {
	b := partalloc.NewSequenceBuilder()
	id := b.Arrive(4)
	b.At(2).Depart(id)
	seq := b.Sequence()
	if err := seq.Validate(8); err != nil {
		t.Fatal(err)
	}
	if seq.OptimalLoad(8) != 1 {
		t.Fatal("builder round trip broken")
	}
}

func TestPublicExecute(t *testing.T) {
	const n = 32
	w := partalloc.RandomSchedWorkload(partalloc.SchedWorkloadConfig{N: n, Jobs: 100, Seed: 2})
	res := partalloc.Execute(partalloc.MustNew(partalloc.AlgoConstant, partalloc.MustNewMachine(n)), w)
	if len(res.Jobs) != 100 {
		t.Fatalf("finished %d jobs", len(res.Jobs))
	}
	if res.MeanSlowdown < 1 || res.Makespan <= 0 {
		t.Fatalf("degenerate result %+v", res)
	}
	if res.Realloc.Reallocations == 0 {
		t.Fatal("A_C never reallocated during execution")
	}
}

func TestPublicSpaceShare(t *testing.T) {
	jobs := partalloc.RandomSpaceShareJobs(5, 100, 2.0, 8.0, 1)
	for _, st := range []partalloc.SubcubeStrategy{
		partalloc.SubcubeBuddy, partalloc.SubcubeGrayCode, partalloc.SubcubeExhaustive,
	} {
		res := partalloc.SpaceShare(5, st, jobs)
		if res.Completed != 100 {
			t.Fatalf("%v: completed %d", st, res.Completed)
		}
		if res.Utilization <= 0 || res.Utilization > 1 {
			t.Fatalf("%v: utilization %g", st, res.Utilization)
		}
	}
}

func TestPublicFigure1(t *testing.T) {
	seq := partalloc.Figure1Sequence()
	g := partalloc.MustNew(partalloc.AlgoGreedy, partalloc.MustNewMachine(4))
	res := partalloc.Simulate(g, seq, partalloc.SimOptions{})
	if res.MaxLoad != 2 {
		t.Fatalf("greedy on σ*: %d", res.MaxLoad)
	}
	lz := partalloc.MustNew(partalloc.AlgoLazy, partalloc.MustNewMachine(4), partalloc.WithD(1))
	res = partalloc.Simulate(lz, seq, partalloc.SimOptions{})
	if res.MaxLoad != 1 {
		t.Fatalf("lazy(1) on σ*: %d", res.MaxLoad)
	}
	if res.Realloc.Reallocations != 1 {
		t.Fatalf("lazy reallocations: %d", res.Realloc.Reallocations)
	}
}
