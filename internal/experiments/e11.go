package experiments

import (
	"fmt"

	"partalloc/internal/core"
	"partalloc/internal/report"
	"partalloc/internal/sched"
	"partalloc/internal/workload"
)

// E11Row summarizes one algorithm's closed-loop execution.
type E11Row struct {
	Algorithm    string
	D            int // -2 marks non-d algorithms
	MeanSlowdown float64
	P95Slowdown  float64
	MaxSlowdown  float64
	Makespan     float64
	MaxLoad      int
	Migrations   int64
}

// E11ClosedLoop is the extension experiment that executes the paper's
// motivation end to end: jobs carry work requirements and run under
// gang-scheduled round-robin, so an allocator's load imbalance feeds back
// into residence times. It reports user-visible response-time metrics —
// mean/p95/max slowdown and makespan — for the d sweep plus the
// no-reallocation baselines, alongside the migration cost each point paid.
func E11ClosedLoop(cfg Config) Artifact {
	n := 256
	if cfg.Quick {
		n = 64
	}
	rows := E11Rows(cfg, n)
	tab := &report.Table{
		Caption: fmt.Sprintf("E11 — closed-loop execution (gang round-robin) at N=%d: slowdown vs reallocation", n),
		Headers: []string{"algorithm", "mean slowdown", "p95", "max", "makespan", "max load", "migrations"},
	}
	for _, r := range rows {
		tab.AddRowf(r.Algorithm, r.MeanSlowdown, r.P95Slowdown, r.MaxSlowdown,
			r.Makespan, r.MaxLoad, r.Migrations)
	}
	return Artifact{
		ID:     "E11",
		Title:  "Closed-loop response time (extension: §2's round-robin model executed)",
		Tables: []*report.Table{tab},
		Notes: []string{
			"slowdown 1.0 = the job ran as if it had the submachine to itself.",
			"observed shape: the load-aware algorithms (A_C, A_M, greedy) cluster together on average-case workloads — greedy's worst case needs adversarial sequences (E4/E5) — while the oblivious A_Rand and the two-probe A_2choice pay clearly higher mean and tail slowdowns. Migrations measure what A_C/A_M pay for their guarantee.",
			"closed loop amplifies imbalance: slow jobs stay resident, keeping their PEs hot — the feedback the open-loop experiments (E4, E10) cannot show.",
		},
	}
}

// E11Rows computes the raw table.
func E11Rows(cfg Config, n int) []E11Row {
	seeds := cfg.seeds(5)
	jobs := 600
	if cfg.Quick {
		jobs = 200
	}
	type entry struct {
		name string
		d    int
		mk   func(seed int64) core.Allocator
	}
	entries := []entry{
		{"A_C (d=0)", 0, func(int64) core.Allocator { return core.NewConstant(newMachine(n)) }},
		{"A_M(d=1)", 1, func(int64) core.Allocator { return core.NewPeriodic(newMachine(n), 1, core.DecreasingSize) }},
		{"A_M(d=2)", 2, func(int64) core.Allocator { return core.NewPeriodic(newMachine(n), 2, core.DecreasingSize) }},
		{"A_M-lazy(d=2)", 2, func(int64) core.Allocator { return core.NewLazy(newMachine(n), 2, core.DecreasingSize) }},
		{"A_G (never)", -2, func(int64) core.Allocator { return core.NewGreedy(newMachine(n)) }},
		{"A_2choice", -2, func(s int64) core.Allocator { return core.NewTwoChoice(newMachine(n), s+50) }},
		{"A_Rand", -2, func(s int64) core.Allocator { return core.NewRandom(newMachine(n), s+50) }},
	}
	var rows []E11Row
	for _, e := range entries {
		var mean, p95, max, makespan float64
		var maxLoad int
		var migrations int64
		for s := 0; s < seeds; s++ {
			w := sched.RandomWorkload(sched.WorkloadConfig{
				N: n, Jobs: jobs, Seed: int64(s), Sizes: workload.GeometricSizes,
			})
			res := sched.Run(e.mk(int64(s)), w, sched.Options{})
			mean += res.MeanSlowdown
			p95 += res.P95Slowdown
			if res.MaxSlowdown > max {
				max = res.MaxSlowdown
			}
			makespan += res.Makespan
			if res.MaxLoad > maxLoad {
				maxLoad = res.MaxLoad
			}
			migrations += res.Realloc.Migrations
		}
		rows = append(rows, E11Row{
			Algorithm:    e.name,
			D:            e.d,
			MeanSlowdown: mean / float64(seeds),
			P95Slowdown:  p95 / float64(seeds),
			MaxSlowdown:  max,
			Makespan:     makespan / float64(seeds),
			MaxLoad:      maxLoad,
			Migrations:   migrations / int64(seeds),
		})
	}
	return rows
}
