package sched

import (
	"strings"
	"testing"

	"partalloc/internal/core"
	"partalloc/internal/fault"
	"partalloc/internal/invariant"
	"partalloc/internal/topology"
	"partalloc/internal/tree"
)

// Satellite edge case: zero- and negative-work jobs must be rejected up
// front — a zero-work job would complete instantly at an undefined rate.
func TestValidateRejectsZeroWork(t *testing.T) {
	for _, work := range []float64{0, -1} {
		w := Workload{Jobs: []Job{job(1, 2, 0, work)}}
		if err := w.Validate(8); err == nil {
			t.Errorf("work=%g accepted", work)
		}
	}
}

// Satellite edge case: simultaneous completions must resolve in a fixed
// order (lowest ID first) so runs are replayable despite map iteration.
func TestSimultaneousCompletionsDeterministic(t *testing.T) {
	w := Workload{Jobs: []Job{
		job(1, 2, 0, 5), job(2, 2, 0, 5), // disjoint on N=4, identical work
	}}
	for trial := 0; trial < 20; trial++ {
		res := Run(core.NewGreedy(tree.MustNew(4)), w, Options{})
		if len(res.Jobs) != 2 {
			t.Fatalf("trial %d: %d jobs completed", trial, len(res.Jobs))
		}
		if res.Jobs[0].ID != 1 || res.Jobs[1].ID != 2 {
			t.Fatalf("trial %d: completion order %d,%d; want 1,2",
				trial, res.Jobs[0].ID, res.Jobs[1].ID)
		}
		if res.Jobs[0].Completion != 5 || res.Jobs[1].Completion != 5 {
			t.Fatalf("trial %d: completions %g,%g; want 5,5",
				trial, res.Jobs[0].Completion, res.Jobs[1].Completion)
		}
	}
}

// Satellite edge case: a job in flight when its PE fails is forcibly
// migrated and completes at its new placement's (slower) rate.
func TestCompletionDuringForcedMigration(t *testing.T) {
	m := tree.MustNew(4)
	check := invariant.New(m)
	w := Workload{Jobs: []Job{
		job(1, 2, 0, 4), // left half (PEs 0-1) under A_G
		job(2, 2, 0, 4), // right half (PEs 2-3)
	}}
	s := fault.Schedule{Events: []fault.Event{{At: 2, Kind: fault.FailPE, PE: 0}}}
	if err := s.Validate(4); err != nil {
		t.Fatal(err)
	}
	res := Run(core.NewGreedy(m), w, Options{Checker: check, Faults: s.Source()})
	if err := check.Err(); err != nil {
		t.Fatal(err)
	}
	if res.Forced.Failures != 1 || res.Forced.Migrations != 1 || res.Forced.MovedPEs != 2 {
		t.Fatalf("forced stats %+v; want 1 failure, 1 migration, 2 moved PEs", res.Forced)
	}
	// After the failure both jobs share PEs 2-3: load 2, rate 1/2, so the
	// 4 units of work finish at t=8 instead of t=4.
	if len(res.Jobs) != 2 {
		t.Fatalf("%d jobs completed, want 2", len(res.Jobs))
	}
	for _, j := range res.Jobs {
		if j.Completion != 8 {
			t.Fatalf("job %d completed at %g, want 8 (res %+v)", j.ID, j.Completion, res)
		}
	}
	if res.MaxLoad != 2 {
		t.Fatalf("MaxLoad %d, want 2", res.MaxLoad)
	}
}

func TestRunFaultedDeterministicReplay(t *testing.T) {
	w := RandomWorkload(WorkloadConfig{N: 16, Jobs: 120, Seed: 11})
	s := fault.Random(fault.RandomConfig{
		N: 16, Events: 2 * len(w.Jobs), Failures: 4, Down: 40, Seed: 11,
	})
	run := func() Result {
		m := tree.MustNew(16)
		check := invariant.New(m)
		res := Run(core.LazyFactory(2).New(m), w, Options{Checker: check, Faults: s.Source()})
		if err := check.Err(); err != nil {
			t.Fatal(err)
		}
		return res
	}
	r1, r2 := run(), run()
	if r1.FaultEvents == 0 {
		t.Fatal("no fault events applied")
	}
	if len(r1.Jobs) != len(w.Jobs) || len(r2.Jobs) != len(w.Jobs) {
		t.Fatalf("completed %d/%d jobs, want %d", len(r1.Jobs), len(r2.Jobs), len(w.Jobs))
	}
	for i := range r1.Jobs {
		if r1.Jobs[i] != r2.Jobs[i] {
			t.Fatalf("job %d diverged: %+v vs %+v", i, r1.Jobs[i], r2.Jobs[i])
		}
	}
	if r1.Makespan != r2.Makespan || r1.MaxLoad != r2.MaxLoad || r1.Forced != r2.Forced {
		t.Fatalf("summary diverged:\n%+v\n%+v", r1, r2)
	}
}

func TestRunFaultedRejectsUnsupportedAllocator(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("no panic for a fault-oblivious allocator")
		}
		if msg, ok := r.(string); !ok || !strings.Contains(msg, "does not support fault injection") {
			t.Fatalf("unexpected panic: %v", r)
		}
	}()
	w := Workload{Jobs: []Job{job(1, 2, 0, 5)}}
	s := fault.Schedule{Events: []fault.Event{{At: 0, Kind: fault.FailPE, PE: 0}}}
	Run(core.NewRandom(tree.MustNew(8), 1), w, Options{Faults: s.Source()})
}

// misreportingMaxLoad reports one more than its allocator's true maximum
// load, which the invariant checker's maxload-snapshot rule catches.
type misreportingMaxLoad struct{ core.Allocator }

func (m misreportingMaxLoad) MaxLoad() int { return m.Allocator.MaxLoad() + 1 }

// Under the invariantdebug tag every run is audited by a panicking
// checker, hosted runs given no checker included.
func TestDebugBuildAuditsHostedRun(t *testing.T) {
	if !invariant.Debug {
		t.Skip("needs the invariantdebug build tag")
	}
	cube, err := topology.NewHypercube(8)
	if err != nil {
		t.Fatal(err)
	}
	host, err := topology.NewHost(cube)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		r := recover()
		if msg, ok := r.(string); !ok || !strings.Contains(msg, "maxload-snapshot") {
			t.Fatalf("panic %v; want a maxload-snapshot violation", r)
		}
	}()
	w := Workload{Jobs: []Job{job(1, 2, 0, 5)}}
	Run(misreportingMaxLoad{core.NewGreedy(host.Tree())}, w, Options{Host: host})
}
