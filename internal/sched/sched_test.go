package sched

import (
	"math"
	"testing"

	"partalloc/internal/core"
	"partalloc/internal/task"
	"partalloc/internal/tree"
	"partalloc/internal/workload"
)

func job(id task.ID, size int, at, work float64) Job {
	return Job{ID: id, Size: size, Arrival: at, Work: work}
}

func TestValidate(t *testing.T) {
	good := Workload{Jobs: []Job{job(1, 2, 0, 5), job(2, 4, 1, 5)}}
	if err := good.Validate(8); err != nil {
		t.Fatal(err)
	}
	bad := []Workload{
		{Jobs: []Job{job(1, 2, 5, 5), job(2, 2, 1, 5)}}, // time order
		{Jobs: []Job{job(1, 3, 0, 5)}},                  // size not pow2
		{Jobs: []Job{job(1, 16, 0, 5)}},                 // too large
		{Jobs: []Job{job(1, 2, 0, 0)}},                  // no work
		{Jobs: []Job{job(0, 2, 0, 5)}},                  // bad id
	}
	for i, w := range bad {
		if err := w.Validate(8); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

// A single job alone runs at rate 1: response = work, slowdown = 1.
func TestSingleJobRunsAtFullSpeed(t *testing.T) {
	m := tree.MustNew(8)
	w := Workload{Jobs: []Job{job(1, 4, 2.0, 7.5)}}
	res := Run(core.NewGreedy(m), w, Options{})
	if len(res.Jobs) != 1 {
		t.Fatalf("finished %d jobs", len(res.Jobs))
	}
	j := res.Jobs[0]
	if math.Abs(j.Completion-9.5) > 1e-9 || math.Abs(j.Slowdown-1) > 1e-9 {
		t.Fatalf("job timing %+v", j)
	}
	if res.Makespan != j.Completion || res.MaxLoad != 1 {
		t.Fatalf("result %+v", res)
	}
}

// Two full-machine jobs time-share: each runs at rate 1/2 while both are
// active. Job A (work 10) and job B (work 10) arriving together finish at
// 20 and 20 — processor sharing: both at rate 1/2 until one finishes...
// with equal work they finish together at t=20.
func TestTwoJobsTimeShare(t *testing.T) {
	m := tree.MustNew(4)
	w := Workload{Jobs: []Job{job(1, 4, 0, 10), job(2, 4, 0, 10)}}
	res := Run(core.NewGreedy(m), w, Options{})
	for _, j := range res.Jobs {
		if math.Abs(j.Completion-20) > 1e-9 {
			t.Fatalf("job %d completed at %g, want 20", j.ID, j.Completion)
		}
		if math.Abs(j.Slowdown-2) > 1e-9 {
			t.Fatalf("job %d slowdown %g, want 2", j.ID, j.Slowdown)
		}
	}
}

// Unequal work with shared PEs: A(work 5) and B(work 10) share the whole
// machine. Both at rate 1/2; A finishes at t=10; B then runs alone:
// remaining 10-5=5 at rate 1 → finishes at 15.
func TestRateRecoveryAfterCompletion(t *testing.T) {
	m := tree.MustNew(4)
	w := Workload{Jobs: []Job{job(1, 4, 0, 5), job(2, 4, 0, 10)}}
	res := Run(core.NewGreedy(m), w, Options{})
	byID := map[task.ID]JobResult{}
	for _, j := range res.Jobs {
		byID[j.ID] = j
	}
	if math.Abs(byID[1].Completion-10) > 1e-9 {
		t.Fatalf("A completed at %g, want 10", byID[1].Completion)
	}
	if math.Abs(byID[2].Completion-15) > 1e-9 {
		t.Fatalf("B completed at %g, want 15", byID[2].Completion)
	}
}

// Disjoint placements don't interfere: two size-2 jobs on a 4-PE machine
// run concurrently at full speed under greedy (which separates them).
func TestDisjointJobsFullSpeed(t *testing.T) {
	m := tree.MustNew(4)
	w := Workload{Jobs: []Job{job(1, 2, 0, 10), job(2, 2, 0, 10)}}
	res := Run(core.NewGreedy(m), w, Options{})
	for _, j := range res.Jobs {
		if math.Abs(j.Slowdown-1) > 1e-9 {
			t.Fatalf("job %d slowdown %g, want 1", j.ID, j.Slowdown)
		}
	}
}

// A gang stalls at its most-loaded PE: size-2 job overlapping one PE with
// a size-1 job advances at 1/2 even though its other PE is idle-ish.
func TestGangRateIsSlowestPE(t *testing.T) {
	m := tree.MustNew(2)
	// Job 1 takes both PEs; job 2 takes one PE. Greedy places job 2 at PE0.
	w := Workload{Jobs: []Job{job(1, 2, 0, 10), job(2, 1, 0, 10)}}
	res := Run(core.NewGreedy(m), w, Options{})
	byID := map[task.ID]JobResult{}
	for _, j := range res.Jobs {
		byID[j.ID] = j
	}
	// Both at rate 1/2 (PE0 has load 2; job1's max-loaded PE is PE0).
	// Both finish at 20.
	if math.Abs(byID[1].Completion-20) > 1e-9 || math.Abs(byID[2].Completion-20) > 1e-9 {
		t.Fatalf("completions %g %g, want 20 20", byID[1].Completion, byID[2].Completion)
	}
}

// Work conservation-ish sanity: total completed work is invariant across
// allocators; makespan and slowdowns differ.
func TestRandomWorkloadAcrossAllocators(t *testing.T) {
	const n = 64
	w := RandomWorkload(WorkloadConfig{N: n, Jobs: 150, Seed: 3, Sizes: workload.GeometricSizes})
	if err := w.Validate(n); err != nil {
		t.Fatal(err)
	}
	var totalWork float64
	for _, j := range w.Jobs {
		totalWork += j.Work
	}
	for _, f := range []core.Factory{
		core.GreedyFactory(),
		core.ConstantFactory(),
		core.PeriodicFactory(2),
		core.LazyFactory(2),
		core.RandomFactory(5),
	} {
		res := Run(f.New(tree.MustNew(n)), w, Options{})
		if len(res.Jobs) != len(w.Jobs) {
			t.Fatalf("%s: finished %d of %d jobs", f.Name, len(res.Jobs), len(w.Jobs))
		}
		var got float64
		for _, j := range res.Jobs {
			got += j.Work
			if j.Slowdown < 1-1e-9 {
				t.Fatalf("%s: slowdown %g < 1 (faster than dedicated!)", f.Name, j.Slowdown)
			}
			if j.Response < j.Work-1e-9 {
				t.Fatalf("%s: response %g below work %g", f.Name, j.Response, j.Work)
			}
		}
		if math.Abs(got-totalWork) > 1e-6 {
			t.Fatalf("%s: work mismatch", f.Name)
		}
		if res.MeanSlowdown < 1 || res.P95Slowdown < res.MeanSlowdown/2 || res.MaxSlowdown < res.P95Slowdown {
			t.Fatalf("%s: slowdown summary inconsistent %+v", f.Name,
				[]float64{res.MeanSlowdown, res.P95Slowdown, res.MaxSlowdown})
		}
	}
}

// The paper's thesis in closed loop: on an oversubscribed machine the
// constantly balancing A_C yields better (or equal) mean slowdown than the
// oblivious A_Rand, which concentrates threads.
func TestBalancingHelpsSlowdowns(t *testing.T) {
	const n = 64
	const seeds = 5
	var constSum, randSum float64
	for s := int64(0); s < seeds; s++ {
		w := RandomWorkload(WorkloadConfig{N: n, Jobs: 300, Seed: s})
		cRes := Run(core.NewConstant(tree.MustNew(n)), w, Options{})
		rRes := Run(core.NewRandom(tree.MustNew(n), s+99), w, Options{})
		constSum += cRes.MeanSlowdown
		randSum += rRes.MeanSlowdown
	}
	if constSum > randSum {
		t.Errorf("A_C mean slowdown %.3f worse than A_Rand %.3f over %d seeds",
			constSum/seeds, randSum/seeds, seeds)
	}
}

func TestRunPanicsOnInvalidWorkload(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	Run(core.NewGreedy(tree.MustNew(4)), Workload{Jobs: []Job{job(1, 8, 0, 1)}}, Options{})
}
