// Package sim drives allocation algorithms through task sequences and
// collects the measurements the experiments report: maximum load over
// time, competitive ratio against the optimal load L*, reallocation cost
// (reallocations, migrated tasks, moved PE-units), and optionally the full
// load time series and per-task slowdown distribution.
//
// The simulator is the "machine" of this reproduction: the paper's load
// metric is a pure thread count, so driving the allocator event by event
// and reading its load state exercises exactly the objects the theorems
// constrain (see DESIGN.md, substitutions).
package sim

import (
	"context"
	"fmt"

	"partalloc/internal/core"
	"partalloc/internal/fault"
	"partalloc/internal/invariant"
	"partalloc/internal/mathx"
	"partalloc/internal/metrics"
	"partalloc/internal/task"
	"partalloc/internal/topology"
	"partalloc/internal/tree"
)

// Options controls what Run records.
type Options struct {
	// RecordSeries keeps a per-event load sample (costs memory).
	RecordSeries bool
	// TrackSlowdowns maintains the per-task round-robin slowdown
	// distribution (costs an O(N + active·size) pass per event).
	TrackSlowdowns bool
	// Paranoid attaches a panicking invariant.Checker when Checker is nil:
	// the first violated invariant aborts the run (O(N + active) per
	// event; for tests).
	Paranoid bool
	// Checker, when non-nil, audits the allocator at every event boundary
	// (load conservation, MaxLoad consistency, placement validity,
	// reallocation budget — see internal/invariant). Violations are
	// recorded on the checker; read them with Checker.Err after Run.
	Checker *invariant.Checker
	// Faults, when non-nil, injects PE failures: immediately before
	// processing event i the source's events for i are applied through the
	// allocator's core.FaultTolerant interface (Run panics if the
	// allocator lacks it). See internal/fault.
	Faults fault.Source
	// Host, when non-nil, runs the simulation on a physical topology: the
	// allocator must have been built on the host's decomposition tree (or
	// an identically-sized one), and the run additionally prices every
	// migration — voluntary and failure-forced — in physical network hops
	// (Result.MigHops, Result.ForcedHops). The run claims the allocator's
	// migration observer when it has one (core.Observable).
	Host *topology.Host
}

// Result summarizes one run.
type Result struct {
	// Algorithm is the allocator's Name().
	Algorithm string
	// N is the machine size.
	N int
	// Events is the number of processed events.
	Events int
	// MaxLoad is the maximum PE load observed at any event time.
	MaxLoad int
	// FinalLoad is the load after the last event.
	FinalLoad int
	// LStar is the optimal load of the sequence.
	LStar int
	// Ratio is MaxLoad/L* (0 when L* is 0).
	Ratio float64
	// PeakRatio is the maximum instantaneous MaxLoad(τ)/L*(prefix ≤ τ).
	PeakRatio float64
	// Realloc is populated when the allocator reallocates.
	Realloc core.ReallocStats
	// FaultEvents is the number of fault events applied during the run.
	FaultEvents int
	// Forced accounts the forced migrations failures caused, separately
	// from the voluntary d-reallocation budget in Realloc.
	Forced core.ForcedStats
	// Series is populated when Options.RecordSeries is set.
	Series *metrics.Series
	// Slowdowns is populated when Options.TrackSlowdowns is set: the
	// worst slowdown of every task (completed and still-active).
	Slowdowns []int
	// Topology names the physical network when Options.Host is set
	// (empty otherwise: the run was host-agnostic).
	Topology string
	// MigHops is the hop-distance-weighted cost of the voluntary
	// (d-reallocation) migrations: Σ over moved tasks of size · Dist.
	// Only populated under Options.Host, and only for allocators that
	// expose their migrations (core.Observable).
	MigHops int64
	// ForcedHops is the hop-distance-weighted cost of the migrations PE
	// failures forced, priced the same way. Only populated under
	// Options.Host.
	ForcedHops int64
}

// Run drives allocator a through sequence seq and returns measurements.
// The sequence must be valid for the allocator's machine (see
// task.Sequence.Validate); Run panics otherwise, as allocators do.
func Run(a core.Allocator, seq task.Sequence, opt Options) Result {
	res, _ := runCtx(nil, a, seq, opt)
	return res
}

// cancelCheckStride is how many events runCtx processes between context
// polls. Cancellation latency is bounded by this many events plus one
// (possibly long) reallocation.
const cancelCheckStride = 64

// RunContext is Run with cooperative cancellation: the context is polled
// every cancelCheckStride events, and on cancellation the measurements
// accumulated so far are returned (Result.Events reports how many events
// were actually processed) together with ctx.Err(). The partial Result is
// finalized exactly like a completed one, so callers can checkpoint it the
// same way the sweep harness checkpoints on SIGINT.
func RunContext(ctx context.Context, a core.Allocator, seq task.Sequence, opt Options) (Result, error) {
	return runCtx(ctx, a, seq, opt)
}

// runCtx is the shared implementation; ctx == nil skips cancellation
// checks entirely (the hot path of Run).
func runCtx(ctx context.Context, a core.Allocator, seq task.Sequence, opt Options) (Result, error) {
	m := a.Machine()
	n := m.N()
	res := Result{Algorithm: a.Name(), N: n, Events: len(seq.Events)}
	var series *metrics.Series
	if opt.RecordSeries {
		series = &metrics.Series{}
	}
	var slow *metrics.SlowdownTracker
	if opt.TrackSlowdowns {
		slow = metrics.NewSlowdownTracker(m)
	}
	check := opt.Checker
	if check == nil && (opt.Paranoid || invariant.Debug) {
		check = invariant.New(m)
		check.SetPanic(true)
	}

	var ft core.FaultTolerant
	if opt.Faults != nil {
		var ok bool
		if ft, ok = a.(core.FaultTolerant); !ok {
			panic(fmt.Sprintf("sim: allocator %s does not support fault injection", a.Name()))
		}
	}

	// Host accounting: price voluntary migrations through the allocator's
	// observer and forced ones from the FailPE return value. A_M's FailPE
	// fires the observer for forced moves too, so the observer is muted
	// (inFault) while a fault is being applied — forced hops are charged
	// exactly once, from the returned migration list.
	host := opt.Host
	var migHops, forcedHops int64
	inFault := false
	if host != nil {
		if host.N() != n {
			panic(fmt.Sprintf("sim: host %s has %d PEs but allocator %s runs on %d", host.Name(), host.N(), a.Name(), n))
		}
		res.Topology = host.Name()
		check.SetHost(host)
		if obs, ok := a.(core.Observable); ok {
			obs.SetMigrationObserver(func(id task.ID, from, to tree.Node) {
				if inFault {
					return
				}
				migHops += host.MigrationCost(from, to)
				check.OnMigration(from, to, false)
			})
		}
	}

	var activeSize, maxActiveSize int64
	peakRatio := 0.0
	failedNow := 0
	var runErr error
	processed := len(seq.Events)
	for i, e := range seq.Events {
		if ctx != nil && i%cancelCheckStride == 0 {
			select {
			case <-ctx.Done():
				runErr = ctx.Err()
			default:
			}
			if runErr != nil {
				processed = i
				break
			}
		}
		if ft != nil {
			for _, fe := range opt.Faults.Next(i, a) {
				switch fe.Kind {
				case fault.FailPE:
					inFault = true
					migs := ft.FailPE(fe.PE)
					inFault = false
					if host != nil {
						for _, mg := range migs {
							forcedHops += host.MigrationCost(mg.From, mg.To)
							check.OnMigration(mg.From, mg.To, true)
						}
					}
					check.OnFail(a, fe.PE)
					failedNow++
				case fault.RecoverPE:
					ft.RecoverPE(fe.PE)
					check.OnRecover(a, fe.PE)
					failedNow--
				default:
					panic(fmt.Sprintf("sim: unknown fault kind %d before event %d", fe.Kind, i))
				}
				res.FaultEvents++
				// Forced migrations can concentrate load between samples;
				// observe the post-fault peak so MaxLoad never misses it.
				if load := a.MaxLoad(); load > res.MaxLoad {
					res.MaxLoad = load
				}
			}
		}
		switch e.Kind {
		case task.Arrive:
			t := task.Task{ID: e.Task, Size: e.Size}
			v := a.Arrive(t)
			check.OnArrive(a, t, v)
			activeSize += int64(e.Size)
			if activeSize > maxActiveSize {
				maxActiveSize = activeSize
			}
			if slow != nil {
				slow.Arrive(e.Task, v)
			}
		case task.Depart:
			if slow != nil {
				// Record the task's placement-state one last time before
				// releasing it (loads from the previous event already
				// observed; departure can only lower loads).
				slow.Depart(e.Task)
			}
			a.Depart(e.Task)
			check.OnDepart(a, e.Task)
			activeSize -= int64(e.Size)
		default:
			panic(fmt.Sprintf("sim: unknown event kind %d at %d", e.Kind, i))
		}

		load := a.MaxLoad()
		if load > res.MaxLoad {
			res.MaxLoad = load
		}
		runningLStar := 0
		if maxActiveSize > 0 {
			runningLStar = int(mathx.CeilDiv64(maxActiveSize, int64(n)))
		}
		if runningLStar > 0 {
			if r := float64(load) / float64(runningLStar); r > peakRatio {
				peakRatio = r
			}
		}
		if slow != nil {
			slow.Observe(a.PELoads())
		}
		if series != nil {
			series.Append(metrics.Sample{
				EventIndex:   i,
				Time:         e.Time,
				MaxLoad:      load,
				ActiveSize:   activeSize,
				RunningLStar: runningLStar,
				FailedPEs:    failedNow,
			})
		}
	}

	res.Events = processed
	res.FinalLoad = a.MaxLoad()
	res.LStar = int(0)
	if maxActiveSize > 0 {
		res.LStar = int(mathx.CeilDiv64(maxActiveSize, int64(n)))
	}
	if res.LStar > 0 {
		res.Ratio = float64(res.MaxLoad) / float64(res.LStar)
	}
	res.PeakRatio = peakRatio
	if r, ok := a.(core.Reallocator); ok {
		res.Realloc = r.ReallocStats()
	}
	if ft != nil {
		res.Forced = ft.ForcedStats()
	}
	res.MigHops = migHops
	res.ForcedHops = forcedHops
	res.Series = series
	if slow != nil {
		res.Slowdowns = slow.All()
	}
	return res, runErr
}
