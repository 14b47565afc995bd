package partalloc

import (
	"fmt"

	"partalloc/internal/core"
	"partalloc/internal/fault"
	"partalloc/internal/topology"
)

// Algorithm selects an allocation algorithm for New. The zero value is
// invalid so an unset field is caught at construction.
type Algorithm int

const (
	// AlgoGreedy is A_G: leftmost minimum-load placement (Theorem 4.1).
	AlgoGreedy Algorithm = iota + 1
	// AlgoBasic is A_B: first-fit over copies of the machine (Lemma 2).
	AlgoBasic
	// AlgoConstant is A_C: reallocate on every arrival, load = L* (Theorem 3.1).
	AlgoConstant
	// AlgoPeriodic is A_M(d): A_B plus a reallocation every d·N arrived
	// units (Theorem 4.2). Requires WithD.
	AlgoPeriodic
	// AlgoLazy is the on-demand variant of A_M(d): same bound, less
	// migration traffic. Requires WithD.
	AlgoLazy
	// AlgoRandom is A_Rand: oblivious uniform placement (Theorem 5.1).
	AlgoRandom
	// AlgoTwoChoice is the balanced-allocations baseline: the less loaded
	// of two uniformly random submachines.
	AlgoTwoChoice
	// AlgoGreedyRandomTie is the A_G ablation with uniform-random
	// tie-breaking instead of leftmost.
	AlgoGreedyRandomTie
)

// String returns the algorithm's paper name.
func (al Algorithm) String() string {
	switch al {
	case AlgoGreedy:
		return "A_G"
	case AlgoBasic:
		return "A_B"
	case AlgoConstant:
		return "A_C"
	case AlgoPeriodic:
		return "A_M"
	case AlgoLazy:
		return "A_M-lazy"
	case AlgoRandom:
		return "A_Rand"
	case AlgoTwoChoice:
		return "A_2C"
	case AlgoGreedyRandomTie:
		return "A_G-randtie"
	}
	return fmt.Sprintf("Algorithm(%d)", int(al))
}

// ParseAlgorithm maps a paper name (as produced by Algorithm.String) back
// to its Algorithm; the engine's rebuild recipe uses it to rebuild
// journaled tenants.
func ParseAlgorithm(s string) (Algorithm, error) {
	for _, al := range []Algorithm{
		AlgoGreedy, AlgoBasic, AlgoConstant, AlgoPeriodic,
		AlgoLazy, AlgoRandom, AlgoTwoChoice, AlgoGreedyRandomTie,
	} {
		if al.String() == s {
			return al, nil
		}
	}
	return 0, fmt.Errorf("partalloc: unknown algorithm %q", s)
}

// FaultSchedule is a validated list of PE failure/recovery events keyed to
// simulation event indexes; attach one with WithFaults.
type FaultSchedule = fault.Schedule

// FaultEvent is one failure or recovery in a FaultSchedule.
type FaultEvent = fault.Event

// Fault event kinds for building FaultSchedules.
const (
	// FailPE takes a PE out of service just before the event index.
	FailPE = fault.FailPE
	// RecoverPE returns a failed PE to service.
	RecoverPE = fault.RecoverPE
)

// config accumulates functional options for New.
type config struct {
	d        int
	dSet     bool
	order    ReallocOrder
	orderSet bool
	seed     int64
	seedSet  bool
	faults   *fault.Schedule
	top      Topology
}

// Option configures New.
type Option func(*config)

// WithD sets the reallocation parameter d for AlgoPeriodic and AlgoLazy
// (d < 0 encodes ∞). New rejects it for algorithms that never reallocate.
func WithD(d int) Option {
	return func(c *config) { c.d, c.dSet = d, true }
}

// WithOrder selects the reallocation procedure's packing order for
// AlgoConstant, AlgoPeriodic and AlgoLazy. Default DecreasingSize (the
// paper's first-fit-decreasing).
func WithOrder(o ReallocOrder) Option {
	return func(c *config) { c.order, c.orderSet = o, true }
}

// WithSeed seeds the randomized algorithms (AlgoRandom, AlgoTwoChoice,
// AlgoGreedyRandomTie). Default 1. New rejects it for deterministic
// algorithms: a silently ignored seed hides a misconfigured experiment.
func WithSeed(seed int64) Option {
	return func(c *config) { c.seed, c.seedSet = seed, true }
}

// WithFaults attaches a PE fault schedule: Simulate, SimulateContext,
// Execute and the Engine inject the schedule's failures and recoveries
// automatically, with no SimOptions.Faults wiring. The schedule is
// validated against the machine at New time; the algorithm must tolerate
// faults (AlgoRandom, AlgoTwoChoice and AlgoGreedyRandomTie do not).
func WithFaults(sched FaultSchedule) Option {
	return func(c *config) {
		s := fault.Schedule{Events: append([]fault.Event(nil), sched.Events...)}
		c.faults = &s
	}
}

// WithTopology runs the allocator on a physical network: the allocator is
// built against the topology's hierarchical binary decomposition (so, e.g.,
// a fat tree's level-width metadata reaches the load bookkeeping), and
// Simulate, Execute and the Engine additionally price every migration —
// voluntary and failure-forced — in physical network hops (SimResult's
// Topology/MigHops/ForcedHops fields). The topology's PE count must match
// the machine's; the "tree" topology reproduces host-agnostic runs
// byte-identically. A WithFaults schedule names physical PEs and is
// translated through the decomposition.
func WithTopology(t Topology) Option {
	return func(c *config) { c.top = t }
}

// newConfig applies opts over the defaults; it is the one place they are
// spelled out.
func newConfig(opts []Option) config {
	c := config{order: DecreasingSize, seed: 1}
	for _, o := range opts {
		o(&c)
	}
	return c
}

// New builds an allocator for algo on machine m. Invalid combinations are
// rejected with descriptive errors (strict by design: every option must be
// meaningful for the chosen algorithm). The returned Allocator is also a
// Reallocator when algo reallocates.
func New(algo Algorithm, m *Machine, opts ...Option) (Allocator, error) {
	return newConfig(opts).build(algo, m)
}

// build is New over already resolved options. It leaves c untouched, so
// the raw, untranslated fault schedule stays available to tenantSpec.
func (c config) build(algo Algorithm, m *Machine) (Allocator, error) {
	if m == nil {
		return nil, fmt.Errorf("partalloc: New(%v): nil machine", algo)
	}

	// A topology replaces the plain machine with its decomposition tree:
	// same N, same submachine structure, plus the network's level widths.
	var host *topology.Host
	if c.top != nil {
		if c.top.N() != m.N() {
			return nil, fmt.Errorf("partalloc: New(%v): %w: WithTopology: topology %s has %d PEs but the machine has %d",
				algo, ErrBadOption, c.top.Name(), c.top.N(), m.N())
		}
		var err error
		if host, err = topology.NewHost(c.top); err != nil {
			return nil, fmt.Errorf("partalloc: New(%v): %w", algo, err)
		}
		m = host.Tree()
	}

	takesD := algo == AlgoPeriodic || algo == AlgoLazy
	takesOrder := takesD || algo == AlgoConstant
	takesSeed := algo == AlgoRandom || algo == AlgoTwoChoice || algo == AlgoGreedyRandomTie
	switch {
	case c.dSet && !takesD:
		return nil, fmt.Errorf("partalloc: New(%v): %w: WithD only applies to AlgoPeriodic and AlgoLazy", algo, ErrBadOption)
	case !c.dSet && takesD:
		return nil, fmt.Errorf("partalloc: New(%v): %w: WithD is required (use WithD(-1) for d = ∞)", algo, ErrBadOption)
	case c.orderSet && !takesOrder:
		return nil, fmt.Errorf("partalloc: New(%v): %w: WithOrder only applies to reallocating algorithms", algo, ErrBadOption)
	case c.seedSet && !takesSeed:
		return nil, fmt.Errorf("partalloc: New(%v): %w: WithSeed only applies to randomized algorithms", algo, ErrBadOption)
	}

	var a core.Allocator
	switch algo {
	case AlgoGreedy:
		a = core.NewGreedy(m)
	case AlgoBasic:
		a = core.NewBasic(m)
	case AlgoConstant:
		a = core.NewConstant(m)
	case AlgoPeriodic:
		a = core.NewPeriodic(m, c.d, c.order)
	case AlgoLazy:
		a = core.NewLazy(m, c.d, c.order)
	case AlgoRandom:
		a = core.NewRandom(m, c.seed)
	case AlgoTwoChoice:
		a = core.NewTwoChoice(m, c.seed)
	case AlgoGreedyRandomTie:
		a = core.NewGreedyRandomTie(m, c.seed)
	default:
		return nil, fmt.Errorf("partalloc: New: unknown algorithm %v", algo)
	}

	sched := c.faults
	if sched != nil {
		// Schedules name physical PEs; on a host they are translated (and
		// range-checked) through the decomposition before validation.
		if host != nil {
			mapped, err := sched.MapPEs(host.CanonicalPE)
			if err != nil {
				return nil, fmt.Errorf("partalloc: New(%v): %w", algo, err)
			}
			sched = &mapped
		}
		if err := sched.Validate(m.N()); err != nil {
			return nil, fmt.Errorf("partalloc: New(%v): %w", algo, err)
		}
		if _, ok := a.(core.FaultTolerant); !ok {
			return nil, fmt.Errorf("partalloc: New(%v): %w: WithFaults: algorithm does not support fault injection", algo, ErrBadOption)
		}
	}
	if sched != nil || host != nil {
		return &wrappedAllocator{Allocator: a, sched: sched, host: host}, nil
	}
	return a, nil
}

// MustNew is New, panicking on error; for tests and examples.
func MustNew(algo Algorithm, m *Machine, opts ...Option) Allocator {
	a, err := New(algo, m, opts...)
	if err != nil {
		panic(err)
	}
	return a
}

// wrappedAllocator carries a WithFaults schedule and/or a WithTopology
// host alongside the allocator. It only wraps when one of those options is
// used, so the common path keeps direct access to the concrete allocator's
// optional interfaces (Reallocator, FaultTolerant, BatchApplier).
// Simulate/Execute/Engine unwrap it, turn the schedule into a fault source
// and attach the host to the run.
type wrappedAllocator struct {
	core.Allocator
	sched *fault.Schedule
	host  *topology.Host
}

// Snapshot delegates to the wrapped allocator so wrapping preserves
// core.Checkpointable: the embedded interface is core.Allocator, which
// does not carry the snapshot methods. Every partalloc allocator is
// checkpointable, so the assertion cannot fail for allocators built by
// New.
func (w *wrappedAllocator) Snapshot() []byte {
	return w.Allocator.(core.Checkpointable).Snapshot()
}

// Restore is Snapshot's inverse; see Snapshot for why the delegation is
// explicit.
func (w *wrappedAllocator) Restore(data []byte) error {
	return w.Allocator.(core.Checkpointable).Restore(data)
}

// unwrapRun splits a possibly wrapped allocator into the underlying
// allocator, its fault schedule, and its topology host (nil when not
// attached).
func unwrapRun(a Allocator) (Allocator, *fault.Schedule, *topology.Host) {
	if wa, ok := a.(*wrappedAllocator); ok {
		return wa.Allocator, wa.sched, wa.host
	}
	return a, nil, nil
}
