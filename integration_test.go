package partalloc_test

import (
	"strings"
	"testing"

	"partalloc"
	"partalloc/internal/trace"
)

// Integration: a sequence serialized to JSON and replayed must produce
// exactly the same loads, ratios and reallocation statistics for every
// deterministic algorithm — the reproducibility contract behind
// `partsim -trace-out` / `-trace-in`.
func TestTraceReplayDeterminism(t *testing.T) {
	const n = 128
	orig := partalloc.PoissonWorkload(partalloc.WorkloadConfig{N: n, Arrivals: 800, Seed: 17})

	var buf strings.Builder
	if err := trace.WriteJSON(&buf, orig, "integration", n); err != nil {
		t.Fatal(err)
	}
	replayed, _, _, err := trace.ReadJSON(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}

	algos := map[string]struct {
		algo partalloc.Algorithm
		opts []partalloc.Option
	}{
		"greedy":   {partalloc.AlgoGreedy, nil},
		"basic":    {partalloc.AlgoBasic, nil},
		"constant": {partalloc.AlgoConstant, nil},
		"periodic": {partalloc.AlgoPeriodic, []partalloc.Option{partalloc.WithD(2)}},
		"lazy":     {partalloc.AlgoLazy, []partalloc.Option{partalloc.WithD(2)}},
		"random":   {partalloc.AlgoRandom, []partalloc.Option{partalloc.WithSeed(9)}},
	}
	for name, tc := range algos {
		mk := func() partalloc.Allocator { return partalloc.MustNew(tc.algo, partalloc.MustNewMachine(n), tc.opts...) }
		a := partalloc.Simulate(mk(), orig, partalloc.SimOptions{})
		b := partalloc.Simulate(mk(), replayed, partalloc.SimOptions{})
		if a.MaxLoad != b.MaxLoad || a.LStar != b.LStar || a.Realloc != b.Realloc ||
			a.FinalLoad != b.FinalLoad || a.PeakRatio != b.PeakRatio {
			t.Errorf("%s: replay diverged: %+v vs %+v", name, a, b)
		}
	}
}

// Integration: cross-algorithm dominance facts that tie the whole stack
// together on one larger run.
func TestCrossAlgorithmDominance(t *testing.T) {
	const n = 512
	for seed := int64(0); seed < 3; seed++ {
		seq := partalloc.SaturationWorkload(partalloc.SaturationConfig{
			N: n, Events: 4000, Seed: seed, Churn: 0.25, Target: 2.0,
		})
		lstar := seq.OptimalLoad(n)

		constant := partalloc.Simulate(partalloc.MustNew(partalloc.AlgoConstant, partalloc.MustNewMachine(n)), seq, partalloc.SimOptions{})
		greedy := partalloc.Simulate(partalloc.MustNew(partalloc.AlgoGreedy, partalloc.MustNewMachine(n)), seq, partalloc.SimOptions{})
		d1 := partalloc.Simulate(partalloc.MustNew(partalloc.AlgoPeriodic, partalloc.MustNewMachine(n), partalloc.WithD(1)), seq, partalloc.SimOptions{})
		d3 := partalloc.Simulate(partalloc.MustNew(partalloc.AlgoPeriodic, partalloc.MustNewMachine(n), partalloc.WithD(3)), seq, partalloc.SimOptions{})

		// A_C is optimal; everyone else is at least optimal.
		if constant.MaxLoad != lstar {
			t.Fatalf("seed %d: A_C load %d != L* %d", seed, constant.MaxLoad, lstar)
		}
		for name, r := range map[string]partalloc.SimResult{"greedy": greedy, "d1": d1, "d3": d3} {
			if r.MaxLoad < lstar {
				t.Fatalf("seed %d %s: load below optimal", seed, name)
			}
		}
		// Theorem bounds.
		if greedy.MaxLoad > partalloc.GreedyBound(n)*lstar {
			t.Fatalf("seed %d: greedy exceeded its bound", seed)
		}
		if d1.MaxLoad > partalloc.UpperBound(n, 1)*lstar || d3.MaxLoad > partalloc.UpperBound(n, 3)*lstar {
			t.Fatalf("seed %d: A_M exceeded Theorem 4.2", seed)
		}
		// Reallocation frequency ordering: d=1 reallocates more than d=3.
		if d1.Realloc.Reallocations <= d3.Realloc.Reallocations {
			t.Fatalf("seed %d: realloc counts not ordered (%d vs %d)",
				seed, d1.Realloc.Reallocations, d3.Realloc.Reallocations)
		}
	}
}

// Integration: the closed-loop scheduler and the open-loop simulator agree
// on the degenerate case where every job runs alone (sequential arrivals,
// machine drained between jobs): slowdown 1 everywhere and max load 1.
func TestSchedulerMatchesOpenLoopWhenUncontended(t *testing.T) {
	const n = 16
	w := partalloc.SchedWorkload{}
	at := 0.0
	for i := 1; i <= 20; i++ {
		w.Jobs = append(w.Jobs, partalloc.SchedJob{
			ID: partalloc.TaskID(i), Size: 4, Arrival: at, Work: 1,
		})
		at += 2 // next arrival after the previous job surely finished
	}
	res := partalloc.Execute(partalloc.MustNew(partalloc.AlgoGreedy, partalloc.MustNewMachine(n)), w)
	if res.MaxLoad != 1 {
		t.Fatalf("max load %d, want 1", res.MaxLoad)
	}
	for _, j := range res.Jobs {
		if j.Slowdown != 1 {
			t.Fatalf("job %d slowdown %g, want 1", j.ID, j.Slowdown)
		}
	}
}
