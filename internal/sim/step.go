package sim

import (
	"fmt"

	"partalloc/internal/core"
	"partalloc/internal/fault"
	"partalloc/internal/invariant"
	"partalloc/internal/mathx"
	"partalloc/internal/task"
	"partalloc/internal/topology"
	"partalloc/internal/tree"
)

// Ledger is the running account of one allocator's event sequence: the
// active size and its maximum (which give L*), the sampled peak load, the
// applied fault events, and the hop cost of voluntary and forced
// migrations on a host network.
type Ledger struct {
	ActiveSize    int64
	MaxActiveSize int64
	PeakLoad      int
	FaultEvents   int
	MigHops       int64
	ForcedHops    int64
}

// Step is the one event step that every runner of an allocator shares:
// Run here, the closed-loop scheduler (internal/sched) and each engine
// tenant (internal/engine). It applies arrivals, departures and faults,
// calls the invariant checker's hooks, prices migrations in hops on a
// host network and keeps the Ledger. The runners differ only in where
// events come from and how often they sample the load (ObserveLoad).
type Step struct {
	Ledger

	a     core.Allocator
	batch core.BatchApplier  // nil → core.ApplyEvents
	ft    core.FaultTolerant // nil unless the step takes faults
	check *invariant.Checker
	host  *topology.Host
	n     int64

	// inFault mutes the migration observer while a fault is applied: A_M's
	// FailPE fires it for forced moves too, and those are charged once,
	// from the migrations FailPE returns.
	inFault bool
}

// NewStep builds the step for allocator a. check may be nil. A non-nil
// host must have a's machine size; the step then claims a's migration
// observer (core.Observable) to price voluntary moves. faults says
// whether Fault will be called, which requires a core.FaultTolerant
// allocator.
func NewStep(a core.Allocator, check *invariant.Checker, host *topology.Host, faults bool) (*Step, error) {
	n := a.Machine().N()
	s := &Step{a: a, check: check, host: host, n: int64(n)}
	s.batch, _ = a.(core.BatchApplier)
	if faults {
		var ok bool
		if s.ft, ok = a.(core.FaultTolerant); !ok {
			return nil, fmt.Errorf("allocator %s does not support fault injection", a.Name())
		}
	}
	if host == nil {
		return s, nil
	}
	if host.N() != n {
		return nil, fmt.Errorf("host %s has %d PEs but allocator %s runs on %d", host.Name(), host.N(), a.Name(), n)
	}
	check.SetHost(host)
	if obs, ok := a.(core.Observable); ok {
		// The closure holds the step, not its runner, so it follows the
		// step wherever the runner copies its own state.
		obs.SetMigrationObserver(func(_ task.ID, from, to tree.Node) {
			if s.inFault {
				return
			}
			s.MigHops += host.MigrationCost(from, to)
			check.OnMigration(from, to, false)
		})
	}
	return s, nil
}

// Checker returns the step's invariant checker (nil when unaudited).
func (s *Step) Checker() *invariant.Checker { return s.check }

// Topology names the host network, or "" when the step has no host.
func (s *Step) Topology() string {
	if s.host == nil {
		return ""
	}
	return s.host.Name()
}

// Fault applies one fault event through the allocator's FailPE or
// RecoverPE, prices the forced migrations, audits the result and samples
// the load, since forced moves can raise it between the runner's own
// samples. It returns how many tasks a failure moved and their hop cost.
// The step must have been built to take faults.
func (s *Step) Fault(fe fault.Event) (moved int, hops int64) {
	s.FaultEvents++
	switch fe.Kind {
	case fault.FailPE:
		s.inFault = true
		migs := s.ft.FailPE(fe.PE)
		s.inFault = false
		if s.host != nil {
			for _, mg := range migs {
				hops += s.host.MigrationCost(mg.From, mg.To)
				s.check.OnMigration(mg.From, mg.To, true)
			}
			s.ForcedHops += hops
		}
		s.check.OnFail(s.a, fe.PE)
		moved = len(migs)
	case fault.RecoverPE:
		s.ft.RecoverPE(fe.PE)
		s.check.OnRecover(s.a, fe.PE)
	default:
		panic(fmt.Sprintf("sim: unknown fault kind %d", fe.Kind))
	}
	s.ObserveLoad()
	return moved, hops
}

// Arrive places t, audits the placement and returns it.
func (s *Step) Arrive(t task.Task) tree.Node {
	v := s.a.Arrive(t)
	s.check.OnArrive(s.a, t, v)
	s.ActiveSize += int64(t.Size)
	s.MaxActiveSize = max(s.MaxActiveSize, s.ActiveSize)
	return v
}

// Depart releases task id, of the given size, and audits the result.
func (s *Step) Depart(id task.ID, size int) {
	s.a.Depart(id)
	s.check.OnDepart(s.a, id)
	s.ActiveSize -= int64(size)
}

// Apply applies a fault-free run of events. Under a checker it goes one
// event at a time and samples the load after each, so the checker sees
// every placement and PeakLoad every state. Otherwise the allocator's
// BatchApplier, when it has one, amortizes the whole run, and the L*
// ledger comes back from the allocator's own loop over the run: its net
// size change and its highest running prefix. Only arrivals raise the
// active size, so ActiveSize+peak is the exact maximum over every prefix
// of the run, as the per-event path finds it. evs is read, never kept or
// written.
func (s *Step) Apply(evs []task.Event) {
	if s.check != nil {
		for _, e := range evs {
			if e.Kind == task.Arrive {
				s.Arrive(task.Task{ID: e.Task, Size: e.Size})
			} else {
				s.Depart(e.Task, e.Size)
			}
			s.ObserveLoad()
		}
		return
	}
	var net, peak int64
	if s.batch != nil {
		net, peak = s.batch.ApplyBatch(evs)
	} else {
		net, peak = core.ApplyEvents(s.a, evs)
	}
	s.MaxActiveSize = max(s.MaxActiveSize, s.ActiveSize+peak)
	s.ActiveSize += net
}

// ObserveLoad samples the allocator's maximum load into PeakLoad and
// returns it.
func (s *Step) ObserveLoad() int {
	load := s.a.MaxLoad()
	s.PeakLoad = max(s.PeakLoad, load)
	return load
}

// LStar is the running optimal load ⌈max_τ S(σ;τ)/N⌉ of the events
// stepped so far.
func (s *Step) LStar() int {
	if s.MaxActiveSize <= 0 {
		return 0
	}
	return int(mathx.CeilDiv64(s.MaxActiveSize, s.n))
}

// Realloc is the allocator's reallocation ledger, zero when it never
// reallocates.
func (s *Step) Realloc() core.ReallocStats {
	if r, ok := s.a.(core.Reallocator); ok {
		return r.ReallocStats()
	}
	return core.ReallocStats{}
}

// Forced is the allocator's forced-migration ledger, zero when the step
// takes no faults.
func (s *Step) Forced() core.ForcedStats {
	if s.ft == nil {
		return core.ForcedStats{}
	}
	return s.ft.ForcedStats()
}
