package experiments

import (
	"fmt"

	"partalloc/internal/core"
	"partalloc/internal/report"
	"partalloc/internal/sim"
	"partalloc/internal/stats"
	"partalloc/internal/subcube"
)

// E12Row is one discipline's outcome on the common job stream.
type E12Row struct {
	Discipline  string
	MeanWait    float64
	P95Wait     float64
	EverQueued  float64 // fraction of jobs that waited
	Utilization float64
	MaxLoad     int // time-shared only; 1 for space-shared by definition
}

// E12SpaceVsTime contrasts the paper's time-sharing model with the
// exclusive space-sharing world of its related work (Chen/Shin subcube
// allocation): the same Poisson job stream is run (a) space-shared on a
// hypercube under buddy, Gray-code and exhaustive subcube recognition —
// jobs queue when fragmentation blocks them — and (b) time-shared under
// the paper's allocators — no job ever waits, and the cost surfaces as PE
// load (threads per PE) instead. This is the paper's core motivation made
// quantitative: real-time service is bought by letting loads exceed one.
func E12SpaceVsTime(cfg Config) Artifact {
	dim := 8
	if cfg.Quick {
		dim = 6
	}
	rows := E12Rows(cfg, dim)
	tab := &report.Table{
		Caption: fmt.Sprintf("E12 — space sharing vs time sharing on a %d-cube (N=%d), identical Poisson job streams", dim, 1<<dim),
		Headers: []string{"discipline", "mean wait", "p95 wait", "frac queued", "utilization", "max PE load"},
	}
	for _, r := range rows {
		tab.AddRowf(r.Discipline, r.MeanWait, r.P95Wait, r.EverQueued, r.Utilization, r.MaxLoad)
	}
	return Artifact{
		ID:     "E12",
		Title:  "Space sharing (related work) vs time sharing (this paper)",
		Tables: []*report.Table{tab},
		Notes: []string{
			"space-shared rows: better subcube recognition (buddy → graycode → exhaustive) trims waiting, but fragmentation-induced queueing never disappears.",
			"time-shared rows: wait is identically zero — the paper's real-time-service guarantee — and the price appears in the max-PE-load column, which is exactly what Theorems 3.1–4.3 bound.",
			"utilization for time-shared rows is the mean offered load fraction (can exceed space-shared utilization because nothing is ever idle-while-queued).",
		},
	}
}

// E12Rows computes the raw table for a dim-cube.
func E12Rows(cfg Config, dim int) []E12Row {
	n := 1 << dim
	seeds := cfg.seeds(5)
	jobs := 500
	if cfg.Quick {
		jobs = 200
	}
	// Arrival rate chosen to offer ~80% of the machine: rate·E[size]·E[dur]
	// ≈ 0.8·N with E[size]≈2, E[dur]=8.
	rate := 0.8 * float64(n) / (2 * 8)

	var rows []E12Row
	// Space-shared disciplines.
	for _, st := range subcube.Strategies() {
		var waits, p95s, queued, utils []float64
		for s := 0; s < seeds; s++ {
			stream := subcube.RandomJobs(dim, jobs, rate, 8, int64(s))
			res := subcube.RunQueue(dim, st, stream)
			waits = append(waits, res.MeanWait)
			p95s = append(p95s, res.P95Wait)
			queued = append(queued, float64(res.EverQueued)/float64(jobs))
			utils = append(utils, res.Utilization)
		}
		rows = append(rows, E12Row{
			Discipline:  "space/" + st.String(),
			MeanWait:    stats.Mean(waits),
			P95Wait:     stats.Mean(p95s),
			EverQueued:  stats.Mean(queued),
			Utilization: stats.Mean(utils),
			MaxLoad:     1,
		})
	}
	// Time-shared disciplines: the same streams as open-loop sequences
	// (every job runs immediately for its duration; loads may exceed 1).
	for _, entry := range []struct {
		name string
		mk   func() core.Allocator
	}{
		{"time/A_C (d=0)", func() core.Allocator { return core.NewConstant(newMachine(n)) }},
		{"time/A_M(d=2)", func() core.Allocator { return core.NewPeriodic(newMachine(n), 2, core.DecreasingSize) }},
		{"time/A_G", func() core.Allocator { return core.NewGreedy(newMachine(n)) }},
	} {
		var utils []float64
		maxLoad := 0
		for s := 0; s < seeds; s++ {
			stream := subcube.RandomJobs(dim, jobs, rate, 8, int64(s))
			seq, offered := subcube.Sequence(stream)
			res := sim.Run(entry.mk(), seq, sim.Options{})
			if res.MaxLoad > maxLoad {
				maxLoad = res.MaxLoad
			}
			utils = append(utils, offered/float64(n))
		}
		rows = append(rows, E12Row{
			Discipline:  entry.name,
			MeanWait:    0,
			P95Wait:     0,
			EverQueued:  0,
			Utilization: stats.Mean(utils),
			MaxLoad:     maxLoad,
		})
	}
	return rows
}
