// Package sched closes the loop the paper's §2 remark opens: "When tasks
// allocated to a single PE are time-shared in a round-robin fashion, the
// worst slowdown ever experienced by a user is proportional to the maximum
// load of any PE in the submachine allocated to it."
//
// Where internal/sim replays open-loop sequences (departure times fixed in
// advance), this package executes tasks: each task brings a work
// requirement (PE-seconds per PE of its gang), every PE round-robins among
// the threads covering it, and a gang task advances at the rate of its
// slowest PE — 1/(max load within its submachine). Departures are
// therefore *endogenous*: a badly balanced allocator slows its tenants
// down, which keeps them resident longer, which keeps the load high — the
// feedback loop that makes thread management a first-order concern on
// time-shared machines. Response time and slowdown are the outputs.
//
// The simulation is event-driven over piecewise-constant progress rates:
// between events (an arrival, a completion) every active task's rate is
// constant, so the next completion time is exact, not time-stepped.
package sched

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"partalloc/internal/core"
	"partalloc/internal/fault"
	"partalloc/internal/invariant"
	"partalloc/internal/mathx"
	"partalloc/internal/sim"
	"partalloc/internal/task"
	"partalloc/internal/topology"
	"partalloc/internal/workload"
)

// Job is one unit of user work: a submachine request plus a work
// requirement in PE-seconds-per-PE (i.e. seconds of dedicated execution).
type Job struct {
	ID      task.ID
	Size    int
	Arrival float64
	Work    float64
}

// JobResult records a completed job's timing.
type JobResult struct {
	Job
	Completion float64
	// Response is Completion − Arrival.
	Response float64
	// Slowdown is Response/Work: 1.0 means the job ran as if alone.
	Slowdown float64
}

// Result summarizes one closed-loop run.
type Result struct {
	Algorithm    string
	N            int
	Jobs         []JobResult
	Makespan     float64
	MeanSlowdown float64
	P95Slowdown  float64
	MaxSlowdown  float64
	MaxLoad      int
	Realloc      core.ReallocStats
	// FaultEvents is the number of fault events applied during the run.
	FaultEvents int
	// Forced accounts forced migrations caused by PE failures, separate
	// from the voluntary reallocation budget in Realloc.
	Forced core.ForcedStats
	// Topology names the physical network when the run was host-aware
	// (Options.Host); empty otherwise.
	Topology string
	// MigHops is the hop-distance-weighted cost of voluntary migrations on
	// the host network (see sim.Result.MigHops); host-aware runs only.
	MigHops int64
	// ForcedHops prices the failure-forced migrations the same way;
	// host-aware runs only.
	ForcedHops int64
}

// Workload is a set of jobs ordered by arrival time.
type Workload struct {
	Jobs []Job
}

// Validate checks job ordering and parameters against machine size n.
func (w *Workload) Validate(n int) error {
	last := math.Inf(-1)
	for i, j := range w.Jobs {
		if j.Arrival < last {
			return fmt.Errorf("sched: job %d arrives at %g before predecessor %g", i, j.Arrival, last)
		}
		last = j.Arrival
		if !mathx.IsPow2(j.Size) || j.Size > n {
			return fmt.Errorf("sched: job %d size %d invalid for N=%d", i, j.Size, n)
		}
		if j.Work <= 0 {
			return fmt.Errorf("sched: job %d has non-positive work %g", i, j.Work)
		}
		if j.ID <= 0 {
			return fmt.Errorf("sched: job %d has invalid id %d", i, j.ID)
		}
	}
	return nil
}

// WorkloadConfig parameterizes RandomWorkload.
type WorkloadConfig struct {
	N           int
	Jobs        int
	ArrivalRate float64 // Poisson rate; 0 → chosen to oversubscribe ~2×
	MeanWork    float64 // exponential mean; 0 → 10
	Sizes       workload.SizeDist
	MaxExp      int // 0 → log2(N)-1
	Seed        int64
}

// RandomWorkload draws a Poisson-arrival job stream with exponential work
// requirements.
func RandomWorkload(cfg WorkloadConfig) Workload {
	if cfg.MeanWork == 0 {
		cfg.MeanWork = 10
	}
	if cfg.MaxExp == 0 {
		cfg.MaxExp = max(mathx.Log2(cfg.N)-1, 0)
	}
	if cfg.Jobs == 0 {
		cfg.Jobs = 200
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	// Mean offered PE-load per unit time = rate · E[size] · meanWork. For
	// geometric sizes E[size] ≈ 2; target 2·N offered load by default.
	if cfg.ArrivalRate == 0 {
		cfg.ArrivalRate = 2 * float64(cfg.N) / (2 * cfg.MeanWork)
	}
	w := Workload{Jobs: make([]Job, 0, cfg.Jobs)}
	now := 0.0
	for i := 0; i < cfg.Jobs; i++ {
		now += rng.ExpFloat64() / cfg.ArrivalRate
		w.Jobs = append(w.Jobs, Job{
			ID:      task.ID(i + 1),
			Size:    drawSize(rng, cfg.Sizes, cfg.MaxExp),
			Arrival: now,
			Work:    rng.ExpFloat64()*cfg.MeanWork + 1e-3,
		})
	}
	return w
}

// drawSize mirrors workload's distributions without exporting them there.
func drawSize(rng *rand.Rand, dist workload.SizeDist, maxExp int) int {
	switch dist {
	case workload.UniformSizes:
		return 1 << rng.Intn(maxExp+1)
	case workload.FixedSize:
		return 1 << maxExp
	default: // geometric & mixed default to geometric here
		e := 0
		for e < maxExp && rng.Intn(2) == 0 {
			e++
		}
		return 1 << e
	}
}

// runner state per active job.
type activeJob struct {
	job       Job
	remaining float64
	rate      float64 // progress per unit time; recomputed at every event
}

// Options controls what a run audits, injects and prices. The zero value
// runs unaudited, fault-free and host-agnostic.
type Options struct {
	// Checker, when non-nil, audits the allocator at every arrival,
	// completion and fault (see internal/invariant); read its findings
	// with Checker.Err after the run. In builds with the `invariantdebug`
	// tag a nil Checker is replaced by a panicking one.
	Checker *invariant.Checker
	// Faults, when non-nil, injects PE failures. Fault events for index i
	// fire immediately before the i-th processed event (arrivals and
	// completions both count), matching internal/sim's event-indexed
	// semantics: in wall-clock terms the failure lands at the instant the
	// previous event finished. Jobs whose submachine loses a PE are
	// forcibly migrated by the allocator, which must implement
	// core.FaultTolerant (the run panics otherwise), and keep executing at
	// their new placement's rate.
	Faults fault.Source
	// Host, when non-nil, runs on a physical topology: migrations,
	// voluntary and failure-forced, are additionally priced in network
	// hops (Result.MigHops, Result.ForcedHops), and the checker audits the
	// hop ledgers against the host. The allocator must run on a machine
	// the host's decomposition describes.
	Host *topology.Host
}

// Run executes the workload on allocator a (which must be fresh) and
// returns timings. Placement happens at arrival exactly as in the paper's
// model; departures are generated when jobs finish executing under
// round-robin gang scheduling.
func Run(a core.Allocator, w Workload, opt Options) Result {
	res, _ := runCtx(nil, a, w, opt)
	return res
}

// RunContext is Run with cooperative cancellation: the context is polled
// periodically and, once cancelled, the run stops at the next event
// boundary and returns the partially summarized Result (jobs completed so
// far, makespan = simulated time reached) with ctx.Err() — the same shape
// a SIGINT checkpoint records.
func RunContext(ctx context.Context, a core.Allocator, w Workload, opt Options) (Result, error) {
	return runCtx(ctx, a, w, opt)
}

// cancelCheckStride is how many events runCtx processes between context
// polls.
const cancelCheckStride = 64

// runCtx is the shared implementation; ctx == nil skips cancellation
// checks entirely.
func runCtx(ctx context.Context, a core.Allocator, w Workload, opt Options) (Result, error) {
	m := a.Machine()
	n := m.N()
	if err := w.Validate(n); err != nil {
		panic(err)
	}
	check := opt.Checker
	if check == nil && invariant.Debug {
		check = invariant.New(m)
		check.SetPanic(true)
	}
	step, err := sim.NewStep(a, check, opt.Host, opt.Faults != nil)
	if err != nil {
		panic(fmt.Sprintf("sched: %v", err))
	}
	res := Result{Algorithm: a.Name(), N: n}

	active := make(map[task.ID]*activeJob)
	now := 0.0
	next := 0 // next arrival index
	events := 0

	// recomputeRates refreshes every active job's progress rate from the
	// allocator's current PE loads; rate = 1 / (max load in the job's
	// submachine).
	loads := make([]int, n)
	recomputeRates := func() {
		if len(active) == 0 {
			return
		}
		copy(loads, a.PELoads())
		for id, aj := range active {
			v, ok := a.Placement(id)
			if !ok {
				panic(fmt.Sprintf("sched: active job %d has no placement", id))
			}
			lo, hi := m.PERange(v)
			maxLoad := 0
			for p := lo; p < hi; p++ {
				if loads[p] > maxLoad {
					maxLoad = loads[p]
				}
			}
			if maxLoad < 1 {
				panic(fmt.Sprintf("sched: job %d occupies idle PEs", id))
			}
			aj.rate = 1 / float64(maxLoad)
		}
	}

	// advance progresses all active jobs to time t.
	advance := func(t float64) {
		dt := t - now
		if dt < 0 {
			panic("sched: time went backwards")
		}
		for _, aj := range active {
			aj.remaining -= dt * aj.rate
		}
		now = t
	}

	finishJob := func(aj *activeJob) {
		step.Depart(aj.job.ID, aj.job.Size)
		delete(active, aj.job.ID)
		r := JobResult{
			Job:        aj.job,
			Completion: now,
			Response:   now - aj.job.Arrival,
		}
		r.Slowdown = r.Response / aj.job.Work
		res.Jobs = append(res.Jobs, r)
	}

	var runErr error
	for next < len(w.Jobs) || len(active) > 0 {
		if ctx != nil && events%cancelCheckStride == 0 {
			select {
			case <-ctx.Done():
				runErr = ctx.Err()
			default:
			}
			if runErr != nil {
				break
			}
		}
		if opt.Faults != nil {
			applied := false
			for _, fe := range opt.Faults.Next(events, a) {
				step.Fault(fe)
				applied = true
			}
			if applied {
				// Forced migrations moved jobs and changed loads; every
				// in-flight job's rate must reflect its new placement.
				recomputeRates()
			}
		}
		// Projected next completion under current rates.
		var soonest *activeJob
		soonestAt := math.Inf(1)
		for _, aj := range active {
			at := now + aj.remaining/aj.rate
			if at < soonestAt || (at == soonestAt && soonest != nil && aj.job.ID < soonest.job.ID) {
				soonest, soonestAt = aj, at
			}
		}
		arrivalAt := math.Inf(1)
		if next < len(w.Jobs) {
			arrivalAt = w.Jobs[next].Arrival
		}

		if arrivalAt <= soonestAt {
			// Next event: arrival.
			advance(arrivalAt)
			j := w.Jobs[next]
			next++
			step.Arrive(task.Task{ID: j.ID, Size: j.Size})
			active[j.ID] = &activeJob{job: j, remaining: j.Work}
			step.ObserveLoad()
		} else {
			// Next event: completion.
			advance(soonestAt)
			// Numerical cleanliness: clamp the finishing job's remainder.
			soonest.remaining = 0
			finishJob(soonest)
		}
		// Any event changes loads (and reallocation may move everything),
		// so refresh every rate.
		events++
		recomputeRates()
	}

	res.Makespan = now
	summarize(&res)
	res.MaxLoad = step.PeakLoad
	res.Realloc = step.Realloc()
	res.FaultEvents = step.FaultEvents
	res.Forced = step.Forced()
	res.Topology = step.Topology()
	res.MigHops = step.MigHops
	res.ForcedHops = step.ForcedHops
	return res, runErr
}

func summarize(res *Result) {
	if len(res.Jobs) == 0 {
		return
	}
	xs := make([]float64, len(res.Jobs))
	var sum float64
	for i, j := range res.Jobs {
		xs[i] = j.Slowdown
		sum += j.Slowdown
		if j.Slowdown > res.MaxSlowdown {
			res.MaxSlowdown = j.Slowdown
		}
	}
	res.MeanSlowdown = sum / float64(len(xs))
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	res.P95Slowdown = sorted[(len(sorted)-1)*95/100]
}
