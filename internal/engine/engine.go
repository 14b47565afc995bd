// Package engine multiplexes many independent tenant allocators — one
// paper-model tree machine each — behind a single concurrent ingestion
// API. The paper's algorithms are strictly sequential per machine, so the
// engine gets its throughput from two orthogonal levers:
//
//   - batching: per-tenant event queues are applied through
//     core.BatchApplier when the allocator supports it, amortizing the
//     loadtree's aggregate maintenance over whole batches instead of
//     paying O(log² N) per event;
//   - sharding: tenants are spread across lock-striped shards by the
//     configured placement policy (placement.go), so ingestion for
//     tenants on different shards never contends, and Replay fans out
//     one worker per shard via parallel.RunCells.
//
// Within a shard, application is serialized by the shard mutex — the
// allocators themselves are not safe for concurrent use, and per-shard
// serialization is exactly the isolation they need.
//
// Allocator misuse surfaces as panics carrying typed sentinel errors
// (internal/errs). The engine converts such panics into returned errors
// and poisons the tenant: every later operation on it fails with
// ErrTenantPoisoned wrapping the original cause, so errors.Is still
// recognizes the sentinel (partalloc.ErrMachineFull, say) at the top of
// the stack instead of a crash at the bottom.
//
// Three robustness layers sit on top (docs/ENGINE.md):
//
//   - bounded ingestion: Config.MaxQueue caps each tenant's queue, with
//     an overload policy — Block (backpressure: oversized submissions are
//     applied in bound-sized chunks), Shed (reject with ErrOverloaded),
//     or Degrade (turn the paper's own d knob: when a tenant's batch
//     apply-latency EWMA crosses Config.DegradeBudget, the engine raises
//     the allocator's effective d / switches A_M to its lazy trigger via
//     core.Degradable, restoring the configured rung once healthy; every
//     transition is recorded in TenantStats.Degrades);
//   - write-ahead journal: with Config.Journal set, every ingestion call
//     is appended to an internal/wal log *before* tenant state changes,
//     and Recover rebuilds the whole engine from the log after a crash;
//   - circuit breaker: with a journal and Config.Rebuild, poisoning is no
//     longer forever — the tenant goes open, and after a seeded-jitter
//     exponential backoff the next ingestion attempt (half-open) rebuilds
//     it from its latest snapshot and the journaled safe tail, dropping
//     the poisonous suffix.
package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"runtime/pprof"
	"strconv"

	"partalloc/internal/core"
	"partalloc/internal/errs"
	"partalloc/internal/fault"
	"partalloc/internal/invariant"
	"partalloc/internal/obs"
	"partalloc/internal/parallel"
	"partalloc/internal/sim"
	"partalloc/internal/task"
	"partalloc/internal/topology"
	"partalloc/internal/wal"
)

// Sentinel errors for engine misuse. Apply-time failures are returned as
// ErrTenantPoisoned wrapping the underlying cause. ErrTenantPoisoned and
// ErrOverloaded wrap the cross-layer sentinels in internal/errs, so
// errors.Is recognizes either spelling anywhere in the stack.
var (
	// ErrUnknownTenant reports an operation on a tenant never registered.
	ErrUnknownTenant = errors.New("engine: unknown tenant")
	// ErrDuplicateTenant reports AddTenant on an existing tenant ID.
	ErrDuplicateTenant = errors.New("engine: tenant already registered")
	// ErrTenantPoisoned reports an operation on a tenant whose allocator
	// already failed; the wrapped chain includes the original cause. With
	// a journal and Config.Rebuild the breaker makes this transient.
	ErrTenantPoisoned = fmt.Errorf("engine: %w", errs.ErrTenantPoisoned)
	// ErrOverloaded reports a submission rejected by the Shed overload
	// policy; the events were not queued.
	ErrOverloaded = fmt.Errorf("engine: %w", errs.ErrOverloaded)
)

// Config parameterizes an Engine. The zero value selects the defaults.
type Config struct {
	// Shards is the number of lock stripes (default min(GOMAXPROCS, 8),
	// at least 1). Placement decides which shard each tenant lands on.
	Shards int
	// BatchSize is the ingestion batch: Submit applies a tenant's events
	// in batches of this size (default 256, and never above MaxQueue when
	// a bound is set), full batches straight from the caller's slice, and
	// queues the remainder, under one batch, for a later Submit or Flush.
	// Larger batches amortize loadtree maintenance further but delay
	// load/latency samples, which are taken at batch boundaries.
	BatchSize int
	// Audit attaches an invariant.Checker to every tenant and applies
	// events one at a time, so the checker sees each placement and
	// TenantStats.PeakLoad samples the load after every event. This trades
	// away all batching throughput for per-event validation; use it in
	// tests and canary runs, not in benchmarks.
	Audit bool
	// MaxQueue bounds each tenant's ingestion queue (0 = unbounded, the
	// historical behavior). A bound below BatchSize lowers BatchSize to
	// the bound: the queue must still be able to fill a batch, or Block
	// would wait for room that only draining creates. Recover and
	// MoveTenant refuse a snapshot that queues more events than the bound.
	MaxQueue int
	// Overload selects what happens when a submission would exceed
	// MaxQueue: Block (default), Shed, or Degrade.
	Overload OverloadPolicy
	// DegradeBudget is the per-tenant batch apply-latency budget for the
	// Degrade policy (default 5ms): when a tenant's latency EWMA exceeds
	// it, the engine climbs that tenant's degradation ladder; when the
	// EWMA stays under half of it, the engine steps back down.
	DegradeBudget time.Duration
	// ReplayWatchdog, when positive, bounds each Replay shard worker's
	// wall time via the parallel.RunCells watchdog. A stalled allocator
	// fails its shard with a TimeoutError instead of hanging Replay.
	ReplayWatchdog time.Duration
	// Journal, when non-nil, is the write-ahead log: every ingestion call
	// is appended before tenant state changes, making the engine
	// recoverable (Recover) and the circuit breaker possible. Journaled
	// engines require tenants registered with a serializable TenantSpec
	// (WithTenantSpec; the partalloc facade does this automatically) and a
	// core.Checkpointable allocator: registration journals the tenant's
	// initial state as its genesis snapshot.
	Journal *wal.Log
	// Rebuild turns a TenantSpec back into a live allocator (plus its
	// fault schedule and topology host). Required by Recover and by the
	// circuit breaker's half-open probe; without it, poisoning is final.
	Rebuild RebuildFunc
	// Breaker tunes the circuit breaker's backoff (zero value = defaults).
	Breaker BreakerConfig
	// SnapshotEvery, when positive, checkpoints a tenant's full state into
	// the journal (wal.TypeSnapshot) every SnapshotEvery applied batches.
	// A snapshot makes every earlier record of that tenant redundant: once
	// all tenants' latest snapshots live in segment ≥ s, segments before s
	// are deleted (wal.Log.TruncateBefore), bounding the journal, and
	// Recover restores each tenant from its last snapshot and replays only
	// the tail after it — O(tail), not O(history). Requires Journal. 0
	// means genesis snapshots only (plus the breaker's healing snapshots):
	// recovery replays each tenant's tail from its registration, and a
	// tenant that never snapshots again pins the journal.
	SnapshotEvery int
	// Sink, when non-nil, receives metrics and flight-recorder events
	// from the hot paths (batch applies, sheds, degrade transitions,
	// breaker trips/probes/heals, forced fault migrations) and turns on
	// pprof tenant/shard/algo labels for Replay workers. A nil Sink costs
	// nothing: every obs.Sink method no-ops on a nil receiver, and the
	// engine takes no clock readings beyond its own ledger's.
	Sink *obs.Sink
	// Placement selects the tenant→shard policy (placement.go):
	// PlacementHash (default, the historical fnv routing) or
	// PlacementBalanced, which places each new tenant on the shard with
	// the fewest tenants and periodically moves tenants from the
	// most-loaded shard to the least-loaded one while a move lowers the
	// larger of the two measured loads.
	Placement PlacementPolicy
	// RebalanceD is balanced placement's move budget: each rebalance
	// pass moves at most RebalanceD·shards tenants (default 1). Ignored
	// under PlacementHash.
	RebalanceD int
	// RebalanceEvery is the number of engine-wide applied batches
	// between the points at which rebalance passes fall due (default
	// 32). Ignored under PlacementHash.
	RebalanceEvery int
}

// RebuildFunc constructs a fresh allocator for a tenant spec. The
// partalloc facade installs one backed by partalloc.New.
type RebuildFunc func(spec TenantSpec) (core.Allocator, *fault.Schedule, *topology.Host, error)

// BreakerConfig tunes the poisoned-tenant circuit breaker: after the
// k-th poisoning a tenant stays open for Base·2^(k-1) (capped at Max)
// plus a deterministic jitter of up to a quarter of that, derived from
// the tenant ID, trip count, and Seed — so a fleet of tenants poisoned
// together does not probe in lockstep, yet runs reproduce exactly.
type BreakerConfig struct {
	Base time.Duration // default 100ms
	Max  time.Duration // default 30s
	Seed int64         // jitter seed (default 1)
}

func (b BreakerConfig) withDefaults() BreakerConfig {
	if b.Base <= 0 {
		b.Base = 100 * time.Millisecond
	}
	if b.Max <= 0 {
		b.Max = 30 * time.Second
	}
	if b.Seed == 0 {
		b.Seed = 1
	}
	return b
}

func (c Config) withDefaults() Config {
	if c.Shards <= 0 {
		c.Shards = runtime.GOMAXPROCS(0)
		if c.Shards > 8 {
			c.Shards = 8
		}
	}
	if c.BatchSize <= 0 {
		c.BatchSize = 256
	}
	if c.MaxQueue > 0 {
		c.BatchSize = min(c.BatchSize, c.MaxQueue)
	}
	if c.DegradeBudget <= 0 {
		c.DegradeBudget = 5 * time.Millisecond
	}
	if c.Placement == PlacementBalanced {
		if c.RebalanceD <= 0 {
			c.RebalanceD = 1
		}
		if c.RebalanceEvery <= 0 {
			c.RebalanceEvery = 32
		}
	}
	c.Breaker = c.Breaker.withDefaults()
	return c
}

// TenantStats is a point-in-time ledger snapshot for one tenant.
type TenantStats struct {
	// Tenant is the tenant ID.
	Tenant string
	// Algorithm is the allocator's paper name (core.Allocator.Name).
	Algorithm string
	// Events is the number of applied (not merely queued) events.
	Events int64
	// Queued is the number of events waiting in the ingestion queue.
	Queued int
	// Batches is the number of apply calls the events were grouped into.
	Batches int64
	// ApplyNs is the cumulative wall time spent applying, in nanoseconds.
	ApplyNs int64
	// BatchNs holds one entry per apply call (its duration in
	// nanoseconds); quantiles over it give p50/p99 apply latency.
	BatchNs []int64
	// MaxLoad is the allocator's current maximum PE load.
	MaxLoad int
	// PeakLoad is the highest MaxLoad sampled at a batch boundary or
	// after an injected fault. Under Config.Audit the load is sampled
	// after every event as well, so PeakLoad is exact.
	PeakLoad int
	// LStar is the running optimal bound ⌈max_τ S(σ;τ)/N⌉ over the
	// applied prefix.
	LStar int
	// Active is the allocator's current active task count.
	Active int
	// Realloc is the allocator's reallocation ledger (zero when the
	// algorithm never reallocates).
	Realloc core.ReallocStats
	// FaultEvents is the number of injected fault-schedule events.
	FaultEvents int
	// Topology names the tenant's physical network when it was registered
	// with a topology host (WithTenantHost); empty otherwise.
	Topology string
	// MigHops is the hop-distance-weighted cost of the tenant's voluntary
	// migrations on its host network; host-aware tenants only.
	MigHops int64
	// ForcedHops prices the tenant's failure-forced migrations the same
	// way; host-aware tenants only.
	ForcedHops int64
	// Violations holds the invariant checker's findings under
	// Config.Audit; always empty otherwise.
	Violations []invariant.Violation
	// ShedEvents counts events rejected by the Shed overload policy.
	ShedEvents int64
	// DroppedEvents counts journaled events dropped by circuit-breaker
	// rebuilds (the poisonous suffix of the tenant's timeline).
	DroppedEvents int64
	// EffectiveD is the allocator's live reallocation parameter when it
	// is core.Degradable and the Degrade policy is active; -1 otherwise.
	EffectiveD int
	// DegradeLevel is the tenant's current rung on its degradation
	// ladder (0 = the configured allocator).
	DegradeLevel int
	// Degrades is the full transition history of the Degrade policy for
	// this tenant, in order.
	Degrades []DegradeTransition
	// BreakerState is "closed" for a healthy tenant and "open" for a
	// poisoned one (the half-open probe happens inside a single lock
	// hold, so it is never observable here).
	BreakerState string
	// BreakerTrips counts how many times this tenant has been poisoned.
	BreakerTrips int
}

// DegradeTransition records one move on a tenant's degradation ladder.
type DegradeTransition struct {
	// Batch is the tenant's batch ordinal at the transition.
	Batch int64
	// FromD/ToD are the effective reallocation parameters.
	FromD, ToD int
	// FromLazy/ToLazy report the on-demand-trigger state.
	FromLazy, ToLazy bool
	// Cause is the human-readable reason (EWMA numbers included).
	Cause string
}

// tenant is one machine's worth of state, owned by its shard.
type tenant struct {
	id    string
	alloc core.Allocator
	// step applies the tenant's events and faults and keeps its load, L*,
	// fault and hop ledger. Its checker is non-nil only under
	// Config.Audit.
	step *sim.Step

	faults   []fault.Event
	faultPos int

	queue []task.Event
	err   error // poisoned; cleared only by a successful breaker rebuild

	// algoName is the allocator's Name at registration: degradation can
	// change the live Name (A_M's includes d), but the ledger keeps the
	// configured identity.
	algoName string
	// spec is the serializable rebuild recipe (WithTenantSpec); hasSpec
	// gates the journal and circuit breaker.
	spec    TenantSpec
	hasSpec bool

	// Overload ledger.
	deg     *degradeState // non-nil only under the Degrade policy
	shed    int64
	dropped int64

	// Circuit breaker: trips counts poisonings; deadline is the e.now()
	// timestamp after which a half-open probe may run.
	trips    int
	deadline int64

	// lastSnapBatch is t.batches at the tenant's last journaled snapshot;
	// the Config.SnapshotEvery cadence counts batches from here.
	lastSnapBatch int64

	events  int64
	batches int64
	applyNs int64
	batchNs []int64

	// meter publishes events and the poisoned state to rebalance passes,
	// which read it from the routing table without this stripe's lock.
	// It is the tenant's for its whole stay: a heal carries it over.
	meter *loadMeter

	// shardIdx is the tenant's stripe, written with its route.
	shardIdx int
}

// shard is one lock stripe.
type shard struct {
	mu sync.Mutex
	// tenants is the stripe's membership. It and the routing table are
	// written together, only by admit, relocate and evict (placement.go),
	// under rebalMu and mu, and by Recover before it returns the engine.
	// It is read under either lock: mu for the tenants it holds, rebalMu
	// for one exact view of every stripe (auditPlacement).
	tenants map[string]*tenant

	// Shard-level ledger (ShardStats), owned by mu except inbound.
	// peakQueued is the highest backlog seen at an ingestion boundary:
	// resident queue depths plus submissions in flight against the
	// stripe (counted in inbound while their events wait for the
	// stripe lock — a hot stripe shows up as submitters piling behind
	// it, not just as resident queues). events/applyNs accumulate
	// per-batch apply work, credited to the stripe the tenant occupied
	// when the batch ran.
	peakQueued int
	events     int64
	applyNs    int64
	inbound    atomic.Int64

	// enc is the stripe's journal scratch, owned by mu: every record with
	// a payload that a tenant here journals (a move: its source stripe's)
	// is encoded into it, and the log has copied it into its own frame
	// buffer by the time the append returns.
	enc []byte
}

// queued sums the resident tenants' queue depths. Callers hold s.mu.
func (s *shard) queued() int {
	q := 0
	for _, t := range s.tenants {
		q += len(t.queue)
	}
	return q
}

// backlog is what peakQueued tracks: the resident queue depth plus the
// events of submissions in flight against the stripe. Callers hold s.mu.
func (s *shard) backlog() int { return s.queued() + int(s.inbound.Load()) }

// noteQueued advances the shard's backlog peak, counting pending events
// that an ingest has taken but not yet queued or applied as resident.
// Callers hold s.mu.
func (s *shard) noteQueued(pending int) {
	s.peakQueued = max(s.peakQueued, s.backlog()+pending)
}

// Engine ingests task events for many tenants concurrently. Methods are
// safe for concurrent use; per-tenant event order is the caller's
// responsibility (events for one tenant submitted from multiple
// goroutines are applied in lock-acquisition order).
type Engine struct {
	cfg    Config
	shards []*shard

	// routing is the tenant→shard table; every shard lookup goes
	// through it (placement.go). rebalMu serializes rebalance passes and
	// every write of a route or a stripe's membership (see
	// shard.tenants). rsMu guards the rebalance ledger, and
	// batchesTotal/nextRebal implement the RebalanceEvery cadence.
	routing      *routing
	rebalMu      sync.Mutex
	rsMu         sync.Mutex
	rebalStats   RebalanceStats
	batchesTotal atomic.Int64
	nextRebal    atomic.Int64

	// jmu serializes journal appends across shards (the wal.Log is not
	// concurrency-safe; appends from different shards would interleave
	// frames otherwise).
	jmu sync.Mutex

	// snapSeg, guarded by jmu, is the per-tenant snapshot watermark: the
	// journal segment holding each journaled tenant's latest snapshot,
	// genesis included. The compaction rule deletes only segments below
	// the minimum, and a probe's tail read starts at the tenant's own.
	snapSeg map[string]int

	// recStats is filled by Recover; resetPos is its pass-1 scratch (the
	// position of each tenant's last snapshot or removal), cleared when
	// recovery finishes.
	recStats RecoveryStats
	resetPos map[string]wal.Pos

	// now is the clock, in nanoseconds; a test hook.
	now func() int64
}

// New builds an engine from cfg (zero value = defaults).
func New(cfg Config) *Engine {
	cfg = cfg.withDefaults()
	e := &Engine{cfg: cfg, shards: newShards(cfg.Shards), routing: newRouting(cfg.Placement, cfg.Shards),
		snapSeg: make(map[string]int)}
	e.nextRebal.Store(int64(cfg.RebalanceEvery))
	e.now = func() int64 { return time.Now().UnixNano() }
	return e
}

// Journal returns the engine's write-ahead log, nil when the engine is
// not journaling. Callers own closing it when the engine is done.
func (e *Engine) Journal() *wal.Log { return e.cfg.Journal }

// tenantAlgo names the tenant's algorithm for pprof labels: its paper
// name at registration, as TenantStats.Algorithm reports it.
func (e *Engine) tenantAlgo(id string) string {
	s, t := e.lockTenant(id)
	if t == nil {
		return "unknown"
	}
	defer s.mu.Unlock()
	return t.algoName
}

// tenantOptions accumulates TenantOptions; the first invalid option
// wins and fails AddTenant with errs.ErrBadOption on the chain.
type tenantOptions struct {
	faults  *fault.Schedule
	host    *topology.Host
	spec    TenantSpec
	hasSpec bool
	err     error
}

func (o *tenantOptions) fail(err error) {
	if o.err == nil {
		o.err = err
	}
}

// TenantOption configures AddTenant.
type TenantOption func(*tenantOptions)

// WithTenantFaults attaches a validated fault schedule, injected at the
// event indexes of the tenant's own stream. The allocator must be
// core.FaultTolerant — the partalloc facade guarantees this for
// WithFaults allocators. The schedule must be non-nil: to register a
// tenant without faults, pass no option at all.
func WithTenantFaults(s *fault.Schedule) TenantOption {
	return func(o *tenantOptions) {
		if s == nil {
			o.fail(fmt.Errorf("%w: WithTenantFaults(nil): omit the option instead", errs.ErrBadOption))
			return
		}
		o.faults = s
	}
}

// WithTenantHost runs the tenant on a physical topology host: its
// migrations — voluntary and failure-forced — are additionally priced in
// network hops (TenantStats.MigHops/ForcedHops), claiming the
// allocator's migration observer when it has one. The allocator must run
// on a machine the host's decomposition describes; the partalloc facade
// builds both from one WithTopology option. The host must be non-nil: to
// register an unhosted tenant, pass no option at all.
func WithTenantHost(h *topology.Host) TenantOption {
	return func(o *tenantOptions) {
		if h == nil {
			o.fail(fmt.Errorf("%w: WithTenantHost(nil): omit the option instead", errs.ErrBadOption))
			return
		}
		o.host = h
	}
}

// WithTenantSpec attaches the tenant's serializable rebuild recipe.
// Journaled engines require it: the spec is what Recover and the circuit
// breaker hand to Config.Rebuild to reconstruct the allocator. The
// caller is responsible for the allocator and other options actually
// matching what Config.Rebuild would produce from spec — the partalloc
// facade builds both sides from the same options, so they cannot
// diverge. The spec's ID must match the AddTenant id.
func WithTenantSpec(spec TenantSpec) TenantOption {
	return func(o *tenantOptions) {
		if spec.ID == "" {
			o.fail(fmt.Errorf("%w: WithTenantSpec: empty tenant ID", errs.ErrBadOption))
			return
		}
		o.spec = spec
		o.hasSpec = true
	}
}

// AddTenant registers a tenant backed by allocator a, configured by
// options: WithTenantFaults for a fault schedule, WithTenantHost for
// hop-priced migrations on a physical network, WithTenantSpec for a
// rebuild recipe. A journaled engine requires the spec and a
// core.Checkpointable allocator, and journals the tenant's initial state
// as its genesis snapshot.
func (e *Engine) AddTenant(id string, a core.Allocator, topts ...TenantOption) error {
	o := tenantOptions{spec: TenantSpec{ID: id}}
	for _, opt := range topts {
		if opt == nil {
			return fmt.Errorf("engine: AddTenant(%q): %w: nil TenantOption", id, errs.ErrBadOption)
		}
		opt(&o)
	}
	if o.err != nil {
		return fmt.Errorf("engine: AddTenant(%q): %w", id, o.err)
	}
	if o.hasSpec && o.spec.ID != id {
		return fmt.Errorf("engine: AddTenant(%q): %w: WithTenantSpec ID %q does not match", id, errs.ErrBadOption, o.spec.ID)
	}
	if a == nil {
		return fmt.Errorf("engine: AddTenant(%q): nil allocator", id)
	}
	if e.cfg.Journal != nil {
		if !o.hasSpec {
			return fmt.Errorf("engine: AddTenant(%q): a journaled engine needs a rebuild recipe; use WithTenantSpec", id)
		}
		if _, ok := a.(core.Checkpointable); !ok {
			return fmt.Errorf("engine: AddTenant(%q): a journaled engine needs a core.Checkpointable allocator; %s is not", id, a.Name())
		}
	}
	t, err := e.buildTenant(o.spec, o.hasSpec, a, o.faults, o.host)
	if err != nil {
		return err
	}
	return e.register(t)
}

// register seats a new tenant, AddTenant's or MoveTenant's arrival, on
// the stripe the placement policy chooses. On a journaled engine it
// first journals the tenant's snapshot with that route: the genesis
// snapshot (spec, empty ledger, fault position 0) or the arrival's
// thawed state, so every journaled tenant has a snapshot from birth.
// rebalMu keeps the choice of stripe and the admit that commits it
// atomic with respect to passes and other registrations. (Recovery
// seats tenants where their snapshots put them: restoreSnapshot.)
func (e *Engine) register(t *tenant) error {
	e.rebalMu.Lock()
	defer e.rebalMu.Unlock()
	if _, ok := e.routing.lookup(t.id); ok {
		return fmt.Errorf("%w: %q", ErrDuplicateTenant, t.id)
	}
	t.shardIdx = e.routing.choose(t.id)
	if e.cfg.Journal != nil {
		env, err := snapshotOf(t)
		if err != nil {
			return err
		}
		//lint:ignore lockorder append-before-apply: the snapshot must be journaled before the tenant is registered, or a crash between the two would orphan its Submit records; rebalMu freezes the stripe choice the snapshot records
		if err := e.appendSnapshot(env); err != nil {
			return err
		}
	}
	e.admit(t)
	return nil
}

// buildTenant constructs a tenant's state; its caller sets the stripe.
// Shared by registration and thaw.
func (e *Engine) buildTenant(spec TenantSpec, hasSpec bool, a core.Allocator, faults *fault.Schedule, host *topology.Host) (*tenant, error) {
	id := spec.ID
	var check *invariant.Checker
	if e.cfg.Audit {
		check = invariant.New(a.Machine())
	}
	step, err := sim.NewStep(a, check, host, faults != nil)
	if err != nil {
		return nil, fmt.Errorf("engine: AddTenant(%q): %w", id, err)
	}
	t := &tenant{
		id:       id,
		alloc:    a,
		step:     step,
		algoName: a.Name(),
		spec:     spec,
		hasSpec:  hasSpec,
		meter:    new(loadMeter),
	}
	if faults != nil {
		t.faults = append([]fault.Event(nil), faults.Events...)
	}
	if e.cfg.Overload == Degrade {
		t.deg = newDegradeState(a)
	}
	return t, nil
}

// Submit queues events for a tenant, applying a batch whenever the queue
// reaches Config.BatchSize; full batches apply straight from evs, which
// the engine neither keeps nor writes (see ingest). A returned apply
// error poisons the tenant.
// Under MaxQueue the overload policy decides what an over-bound
// submission does: Block and Degrade admit it in bound-sized chunks
// (applying batches in between, so the bound never overshoots), Shed
// rejects it whole with ErrOverloaded.
func (e *Engine) Submit(id string, evs ...task.Event) error {
	err := e.submitLocked(id, evs)
	// Outside the shard lock: a due rebalance pass takes many locks and
	// must not nest under this tenant's.
	e.maybeRebalance()
	return err
}

func (e *Engine) submitLocked(id string, evs []task.Event) error {
	// Count the submission against its stripe's inbound backlog while it
	// waits for the lock. The route may move concurrently; crediting the
	// stripe read here keeps the accounting symmetric either way, and the
	// gauge is a pressure sample, not a ledger.
	in := e.shardAt(e.route(id))
	in.inbound.Add(int64(len(evs)))
	s, t := e.lockTenant(id)
	// Admitted: from here the events are the queue's to count, not the
	// backlog's.
	in.inbound.Add(-int64(len(evs)))
	if t == nil {
		return fmt.Errorf("%w: %q", ErrUnknownTenant, id)
	}
	defer s.mu.Unlock()
	// The half-open probe inside ready reads the tenant's journal tail —
	// its latest snapshot's segment on — under the shard lock by design:
	// the rebuild must see a frozen view of this tenant's records and
	// watermark, and the lock is what freezes them.
	if err := e.ready(t); err != nil {
		return err
	}
	if e.cfg.Overload == Shed && e.cfg.MaxQueue > 0 && len(t.queue)+len(evs) > e.cfg.MaxQueue {
		t.shed += int64(len(evs))
		e.cfg.Sink.Shed(id, len(evs), len(t.queue))
		return fmt.Errorf("%w: tenant %q: %d queued + %d submitted exceeds MaxQueue %d",
			ErrOverloaded, id, len(t.queue), len(evs), e.cfg.MaxQueue)
	}
	// Append-before-apply: shed events are gone, accepted events are
	// journaled before any state they touch changes.
	// Append-before-apply requires the journal write inside the critical
	// section — record and state change must be atomic under the shard
	// lock, and that single write(2) is the durability cost accepted.
	if err := e.journalSubmit(t, evs); err != nil {
		return err
	}
	if err := e.ingest(t, evs); err != nil {
		return err
	}
	// The snapshot must capture the tenant frozen by this shard lock, and
	// append-before-release keeps the record ordered with the tenant's
	// other records.
	return e.maybeSnapshot(t)
}

// ingest admits evs into the tenant's queue, at most MaxQueue at a time,
// and applies every full batch. Each event crosses ingest once: a
// partial queue is topped up to one batch from evs, every further full
// batch applies as a sub-slice of evs, and only the tail, under one
// batch, is copied into the queue, so the queue holds less than a batch
// between calls. evs is never kept or written. The ledgers count the
// events taken from evs as queued until their batch applies, exactly as
// if every one had been copied into the queue first: the audit's queue
// bound, the shard's backlog peak and each batch's reported depth.
func (e *Engine) ingest(t *tenant, evs []task.Event) error {
	maxQ, bs := e.cfg.MaxQueue, e.cfg.BatchSize
	for {
		take := len(evs)
		if maxQ > 0 {
			take = min(take, maxQ-len(t.queue))
		}
		in := evs[:take]
		evs = evs[take:]
		t.step.Checker().OnQueue(len(t.queue)+len(in), maxQ)
		// Sample the shard backlog at its pre-drain high-water mark.
		e.shardAt(t.shardIdx).noteQueued(len(in))
		// Drain the queue batch by batch, topping a partial one up from
		// in. A queue thawed from an engine with a larger BatchSize can
		// hold a batch or more before any top-up.
		for len(t.queue) > 0 {
			if q := len(t.queue); q < bs {
				if q+len(in) < bs {
					break
				}
				t.queue = append(t.queue, in[:bs-q]...)
				in = in[bs-q:]
			}
			b := t.queue
			if err := e.apply(t, b[:bs], len(b)-bs+len(in)); err != nil {
				return err
			}
			// Slide the rest to the front, so the queue keeps its array
			// and the tail appends into it without allocating. No apply
			// keeps its batch, and snapshots copy the queue.
			t.queue = b[:copy(b, b[bs:])]
			t.step.Checker().OnQueue(len(t.queue)+len(in), maxQ)
		}
		// The queue is empty or holds a partial batch that in cannot
		// fill, so the full batches left apply straight from in.
		for len(in) >= bs {
			if err := e.apply(t, in[:bs], len(in)-bs); err != nil {
				return err
			}
			in = in[bs:]
			t.step.Checker().OnQueue(len(in), maxQ)
		}
		t.queue = append(t.queue, in...)
		if len(evs) == 0 {
			e.cfg.Sink.QueueDepth(t.id, len(t.queue))
			return nil
		}
	}
}

// Flush applies a tenant's queued events immediately.
func (e *Engine) Flush(id string) error {
	err := e.flushLocked(id)
	e.maybeRebalance()
	return err
}

func (e *Engine) flushLocked(id string) error {
	s, t := e.lockTenant(id)
	if t == nil {
		return fmt.Errorf("%w: %q", ErrUnknownTenant, id)
	}
	defer s.mu.Unlock()
	// The half-open probe inside ready reads the journal tail under the
	// shard lock by design (see Submit).
	if err := e.ready(t); err != nil {
		return err
	}
	if len(t.queue) == 0 {
		return nil
	}
	// Append-before-apply: the flush record and the flush itself must be
	// atomic under the shard lock (see Submit).
	if err := e.journalFlush(t); err != nil {
		return err
	}
	if err := e.flushTenant(t); err != nil {
		return err
	}
	// The snapshot must capture the tenant frozen by this shard lock
	// (see Submit).
	return e.maybeSnapshot(t)
}

// FlushAll flushes every tenant (in sorted ID order) and returns the
// first error.
func (e *Engine) FlushAll() error {
	for _, id := range e.Tenants() {
		if err := e.Flush(id); err != nil {
			return err
		}
	}
	return nil
}

// Tenants returns all tenant IDs in sorted order, read from one
// snapshot of the routing table, so a tenant moving between stripes is
// listed exactly once.
func (e *Engine) Tenants() []string {
	var ids []string
	for id := range e.routing.snapshot() {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// TenantStats snapshots one tenant's ledger. MaxLoad/Active query the
// live allocator, so a poisoned tenant still reports its last state.
func (e *Engine) TenantStats(id string) (TenantStats, error) {
	s, t := e.lockTenant(id)
	if t == nil {
		return TenantStats{}, fmt.Errorf("%w: %q", ErrUnknownTenant, id)
	}
	defer s.mu.Unlock()
	return s.stats(t), nil
}

// Stats snapshots every tenant's ledger in sorted ID order: the tenants
// Tenants lists, less any that left the engine in the meantime.
func (e *Engine) Stats() []TenantStats {
	var out []TenantStats
	for _, id := range e.Tenants() {
		if st, err := e.TenantStats(id); err == nil {
			out = append(out, st)
		}
	}
	return out
}

// Err returns the tenant's poisoning error (nil while healthy).
func (e *Engine) Err(id string) error {
	s, t := e.lockTenant(id)
	if t == nil {
		return fmt.Errorf("%w: %q", ErrUnknownTenant, id)
	}
	defer s.mu.Unlock()
	if t.err != nil {
		return fmt.Errorf("%w: %q: %w", ErrTenantPoisoned, id, t.err)
	}
	return nil
}

// Replay feeds each tenant its stream, one parallel worker per shard,
// through the public calls: Flush, one Submit per Config.BatchSize chunk,
// and a Flush for the remainder. Pending queued events therefore apply
// first, replayed events are batched, journaled and snapshotted like
// submitted ones, and a rebalance pass can fall due inside Replay as in
// any other ingestion call. ctx must be non-nil and is honored between
// chunks: cancellation drains the batch in flight and returns ctx.Err(),
// the same contract as the sweep harness. Tenants within a shard are
// processed in sorted ID order; an error stops that shard's worker but
// not the others.
func (e *Engine) Replay(ctx context.Context, streams map[string][]task.Event) error {
	if ctx == nil {
		return errors.New("engine: Replay requires a non-nil context")
	}
	ids := make([]string, 0, len(streams))
	for id := range streams {
		ids = append(ids, id)
	}
	sort.Strings(ids)

	// Validate up front: an unknown tenant fails the whole replay before
	// any event is applied, not halfway through one shard. The grouping
	// by current route is a parallelism heuristic only — a rebalance can
	// move a tenant mid-replay, and each call re-resolves its shard.
	byShard := make(map[int][]string)
	for _, id := range ids {
		idx, ok := e.routing.lookup(id)
		if !ok {
			return fmt.Errorf("%w: %q", ErrUnknownTenant, id)
		}
		byShard[idx] = append(byShard[idx], id)
	}
	var cells [][]string
	for i := range e.shards { // deterministic order, no map iteration
		if len(byShard[i]) > 0 {
			cells = append(cells, byShard[i])
		}
	}

	// ReplayWatchdog arms the RunCells per-cell timeout so a stalled
	// allocator fails its shard instead of hanging the whole replay.
	opts := parallel.RunOptions{Cancel: ctx.Done(), Timeout: e.cfg.ReplayWatchdog, Sink: e.cfg.Sink}
	cellErrs := parallel.RunCells(len(cells), opts, func(ci int) error {
		for _, id := range cells[ci] {
			var err error
			if e.cfg.Sink != nil {
				// Label the worker's samples so CPU profiles attribute
				// time to the tenant/shard/algorithm being replayed.
				labels := pprof.Labels(
					"tenant", id,
					"shard", strconv.Itoa(e.route(id)),
					"algo", e.tenantAlgo(id),
				)
				pprof.Do(ctx, labels, func(ctx context.Context) { err = e.replayTenant(ctx, id, streams[id]) })
			} else {
				err = e.replayTenant(ctx, id, streams[id])
			}
			if err != nil {
				return err
			}
		}
		return nil
	})

	for _, err := range cellErrs {
		if err == nil {
			continue
		}
		if errors.Is(err, parallel.ErrCanceled) && ctx.Err() != nil {
			return ctx.Err()
		}
		return err
	}
	return ctx.Err()
}

// replayTenant is one tenant's Replay. The first Flush empties the
// queue, so each full chunk applies as one batch inside its Submit, and
// the last Flush applies the short remainder. An empty stream is a
// no-op.
func (e *Engine) replayTenant(ctx context.Context, id string, evs []task.Event) error {
	if len(evs) == 0 {
		return nil
	}
	if err := e.Flush(id); err != nil {
		return err
	}
	for off := 0; off < len(evs); off += e.cfg.BatchSize {
		if err := ctx.Err(); err != nil {
			return err
		}
		if err := e.Submit(id, evs[off:min(off+e.cfg.BatchSize, len(evs))]...); err != nil {
			return err
		}
	}
	return e.Flush(id)
}

// ready reports whether t can take events: nil for a healthy tenant,
// while a poisoned one reports its cause. When the circuit breaker is
// armed (journal + rebuild recipe) and the tenant's backoff deadline has
// passed, ready runs the half-open probe: it rebuilds the tenant from
// the journal and, on success, returns nil. Callers hold the shard lock.
func (e *Engine) ready(t *tenant) error {
	if t.err == nil {
		return nil
	}
	if !e.breakerArmed(t) {
		return fmt.Errorf("%w: %q: %w", ErrTenantPoisoned, t.id, t.err)
	}
	if wait := t.deadline - e.now(); wait > 0 {
		return fmt.Errorf("%w: %q (circuit open, probe in %v): %w",
			ErrTenantPoisoned, t.id, time.Duration(wait), t.err)
	}
	e.cfg.Sink.BreakerProbe(t.id, int64(t.trips))
	if err := e.probe(t); err != nil {
		return fmt.Errorf("%w: %q (half-open probe failed): %w", ErrTenantPoisoned, t.id, err)
	}
	return nil
}

// flushTenant applies the tenant's queued events. The queue keeps its
// array, as after a batch drain in ingest, so the next Submit appends
// into it instead of allocating a new one. Callers hold the shard lock
// and have already journaled the flush when it changes state.
func (e *Engine) flushTenant(t *tenant) error {
	if len(t.queue) == 0 {
		return nil
	}
	b := t.queue
	t.queue = b[:0]
	return e.apply(t, b, 0)
}

// poison marks the tenant failed, drops its queue, and arms the circuit
// breaker's backoff. Callers hold the shard lock.
func (e *Engine) poison(t *tenant, cause error) {
	t.err = cause
	t.meter.poisoned.Store(true)
	t.queue = nil
	t.trips++
	t.deadline = e.now() + e.backoff(t)
	// Opens the breaker gauge and, when a poison-dump writer is wired,
	// flushes the flight recorder so the events leading here survive.
	e.cfg.Sink.BreakerTrip(t.id, int64(t.trips), cause.Error())
}

// apply runs one batch through the allocator, interleaving scheduled
// faults at their event indexes exactly as internal/sim does (faults with
// At ≤ i fire immediately before event i of the tenant's stream). depth
// is the tenant's queue depth left behind the batch, which the sink
// reports with it. evs is read, never kept or written. A panic poisons
// the tenant and is returned as ErrTenantPoisoned wrapping the recovered
// cause. Callers hold the shard lock.
func (e *Engine) apply(t *tenant, evs []task.Event, depth int) (err error) {
	defer func() {
		if r := recover(); r != nil {
			cause, ok := r.(error)
			if !ok {
				cause = fmt.Errorf("panic: %v", r)
			}
			e.poison(t, cause)
			err = fmt.Errorf("%w: %q: %w", ErrTenantPoisoned, t.id, cause)
		}
	}()

	start := e.now()
	base := int(t.events)
	for i := 0; i < len(evs); {
		e.injectFaults(t, base+i)
		// Run uninterrupted until the next scheduled fault (or the end).
		j := len(evs)
		if t.faultPos < len(t.faults) {
			if at := t.faults[t.faultPos].At - base; at < j {
				j = at
			}
		}
		t.step.Apply(evs[i:j])
		i = j
	}
	ns := e.now() - start

	t.events += int64(len(evs))
	t.meter.publish(t.events)
	t.batches++
	t.applyNs += ns
	t.batchNs = append(t.batchNs, ns)
	e.batchesTotal.Add(1)
	sh := e.shardAt(t.shardIdx)
	sh.events += int64(len(evs))
	sh.applyNs += ns
	load := t.step.ObserveLoad()
	if e.cfg.Sink != nil {
		e.cfg.Sink.BatchApplied(t.id, t.shardIdx, len(evs), ns, int64(load), int64(t.step.PeakLoad),
			int64(t.step.LStar()), depth, t.step.MigHops, t.step.ForcedHops)
	}
	e.degradeStep(t, ns)
	return nil
}

// injectFaults applies every scheduled fault with At ≤ i (but not beyond
// the stream position i itself — fault At values index the tenant's event
// stream, so a fault at index k fires before event k is applied).
func (e *Engine) injectFaults(t *tenant, i int) {
	for t.faultPos < len(t.faults) && t.faults[t.faultPos].At <= i {
		fe := t.faults[t.faultPos]
		t.faultPos++
		moved, hops := t.step.Fault(fe)
		if fe.Kind == fault.FailPE {
			e.cfg.Sink.ForcedFault(t.id, fe.PE, moved, hops)
		}
	}
}

// stats snapshots one tenant. Callers hold the shard lock.
func (s *shard) stats(t *tenant) TenantStats {
	st := TenantStats{
		Tenant:        t.id,
		Algorithm:     t.algoName,
		Events:        t.events,
		Queued:        len(t.queue),
		Batches:       t.batches,
		ApplyNs:       t.applyNs,
		BatchNs:       append([]int64(nil), t.batchNs...),
		MaxLoad:       t.alloc.MaxLoad(),
		PeakLoad:      t.step.PeakLoad,
		LStar:         t.step.LStar(),
		Active:        t.alloc.Active(),
		Realloc:       t.step.Realloc(),
		FaultEvents:   t.step.FaultEvents,
		Topology:      t.step.Topology(),
		MigHops:       t.step.MigHops,
		ForcedHops:    t.step.ForcedHops,
		Violations:    t.step.Checker().Violations(),
		ShedEvents:    t.shed,
		DroppedEvents: t.dropped,
		EffectiveD:    -1,
		BreakerState:  "closed",
		BreakerTrips:  t.trips,
	}
	if t.err != nil {
		st.BreakerState = "open"
	}
	if t.deg != nil {
		st.EffectiveD = t.deg.da.EffectiveD()
		st.DegradeLevel = t.deg.level
		st.Degrades = append([]DegradeTransition(nil), t.deg.trans...)
	}
	return st
}
