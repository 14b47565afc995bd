package partalloc

import (
	"context"
	"fmt"
	"io"
	"strings"
	"time"

	"partalloc/internal/core"
	"partalloc/internal/engine"
	"partalloc/internal/fault"
	"partalloc/internal/mathx"
	"partalloc/internal/obs"
	"partalloc/internal/task"
	"partalloc/internal/topology"
	"partalloc/internal/wal"
)

// Event is one task arrival or departure in a tenant's stream; Sequence
// bundles an ordered slice of them.
type Event = task.Event

// Event kinds for building streams by hand; generated workloads
// (PoissonWorkload) produce them already ordered.
const (
	// EventArrive is a task-arrival event.
	EventArrive = task.Arrive
	// EventDepart is a task-departure event.
	EventDepart = task.Depart
)

// EngineConfig parameterizes the deprecated NewEngineFromConfig; the
// zero value selects the defaults (min(GOMAXPROCS, 8) shards, 256-event
// batches, no audit, no queue bound, no journal).
//
// Deprecated: configure NewEngine with EngineOptions (WithShards,
// WithBatchSize, WithAudit, ...) instead of a config struct. The struct
// form survives as NewEngineFromConfig.
type EngineConfig = engine.Config

// BreakerConfig tunes the poisoned-tenant circuit breaker's backoff for
// WithBreaker; the zero value selects the defaults (100ms base, 30s cap,
// jitter seed 1). See docs/ENGINE.md.
type BreakerConfig = engine.BreakerConfig

// EngineTenantStats is a point-in-time ledger snapshot for one tenant:
// applied events, batch apply latencies, current and peak max-load, the
// running optimal bound L*, reallocation counters, and the robustness
// ledgers (shed/dropped events, degradation transitions, breaker state).
type EngineTenantStats = engine.TenantStats

// DegradeTransition records one move on a tenant's degradation ladder
// (EngineTenantStats.Degrades).
type DegradeTransition = engine.DegradeTransition

// OverloadPolicy selects what Submit does when a submission would push a
// tenant's queue past the WithMaxQueue bound.
type OverloadPolicy = engine.OverloadPolicy

// RecoveryStats reports how RecoverEngine reconstructed the engine:
// records scanned, records skipped because a later snapshot already
// covered them, records re-applied, and snapshots restored — one per
// tenant, counting the genesis snapshot a journaled AddTenant writes
// when the tenant took no later one. With WithSnapshotEvery on the
// crashed engine, skipped should dwarf replayed — that is the O(tail)
// recovery at work.
type RecoveryStats = engine.RecoveryStats

// Overload policies for WithOverloadPolicy.
const (
	// OverloadBlock applies backpressure: oversized submissions are
	// admitted in bound-sized chunks, applying batches in between.
	OverloadBlock = engine.Block
	// OverloadShed rejects over-bound submissions whole with ErrOverloaded.
	OverloadShed = engine.Shed
	// OverloadDegrade admits like OverloadBlock but additionally trades
	// placement quality for ingestion speed, turning the paper's d knob
	// on the tenant's allocator when its apply-latency EWMA exceeds the
	// degrade budget; see docs/ENGINE.md.
	OverloadDegrade = engine.Degrade
)

// PlacementPolicy selects how the engine routes tenants to shards; see
// WithPlacement.
type PlacementPolicy = engine.PlacementPolicy

// Placement policies for WithPlacement.
const (
	// PlacementHash routes each tenant to fnv32a(id) mod shards, fixed for
	// the tenant's lifetime. The default.
	PlacementHash = engine.PlacementHash
	// PlacementBalanced routes through a mutable table steered by the
	// paper's own A_M(d) allocator running over a virtual machine whose
	// PEs are the shards; periodic rebalance passes move hot tenants off
	// crowded shards, at most d·shards moves per pass. Requires a
	// power-of-two shard count. See docs/ENGINE.md.
	PlacementBalanced = engine.PlacementBalanced
)

// EngineShardStats is a point-in-time load snapshot for one shard:
// resident tenants, queued events, the high-water queue depth, and
// cumulative applied events and apply time (Engine.ShardStats).
type EngineShardStats = engine.ShardStats

// RebalanceStats aggregates the engine's placement rebalancing:
// passes run, moves planned and performed, the per-pass budget, and any
// invariant violations the post-pass audit found (Engine.RebalanceStats).
type RebalanceStats = engine.RebalanceStats

// JournalSyncPolicy selects when a journaling engine fsyncs its log.
type JournalSyncPolicy = wal.SyncPolicy

// Journal sync policies for WithJournalSync; docs/ENGINE.md discusses
// the durability trade-offs.
const (
	// JournalSyncNever leaves flushing to the OS: survives process
	// crashes (SIGKILL included), not power loss. The default.
	JournalSyncNever = wal.SyncNever
	// JournalSyncBatched fsyncs every few appends — bounded loss.
	JournalSyncBatched = wal.SyncBatched
	// JournalSyncAlways fsyncs every append — full durability.
	JournalSyncAlways = wal.SyncAlways
)

// Engine sentinel errors, recognizable with errors.Is. Allocator-side
// sentinels (ErrMachineFull, ErrDuplicateTask, ...) appear on the same
// chains when an apply fails.
var (
	// ErrUnknownTenant reports an operation on an unregistered tenant.
	ErrUnknownTenant = engine.ErrUnknownTenant
	// ErrDuplicateTenant reports AddTenant on an existing tenant ID.
	ErrDuplicateTenant = engine.ErrDuplicateTenant
	// ErrTenantPoisoned reports an operation on a tenant whose allocator
	// already failed; the chain includes the original cause. On a
	// journaling engine the circuit breaker makes this transient: after a
	// backoff the tenant is rebuilt from its journaled safe prefix.
	ErrTenantPoisoned = engine.ErrTenantPoisoned
	// ErrOverloaded reports a submission rejected whole by the
	// OverloadShed policy; none of its events were queued.
	ErrOverloaded = engine.ErrOverloaded
)

// engineOptions accumulates EngineOptions. Options validate eagerly; the
// first invalid one wins and fails construction with ErrBadOption on the
// error chain, naming the offending option.
type engineOptions struct {
	shards      int
	shardsSet   bool
	batch       int
	batchSet    bool
	audit       bool
	maxQueue    int
	maxQueueSet bool
	policy      OverloadPolicy
	policySet   bool
	budget      time.Duration
	watchdog    time.Duration
	breaker     BreakerConfig
	breakerSet  bool
	journalDir  string
	sync        JournalSyncPolicy
	syncSet     bool
	segBytes    int64
	snapEvery   int
	metrics     *Metrics
	flightN     int
	poisonDump  io.Writer
	placement   PlacementPolicy
	placeSet    bool
	rebalD      int
	rebalEvery  int
	err         error
}

// fail records the first invalid option; later errors are dropped so the
// constructor reports the earliest mistake in the option list.
func (o *engineOptions) fail(err error) {
	if o.err == nil {
		o.err = err
	}
}

// EngineOption configures NewEngine and RecoverEngine: sharding, batch
// size, auditing, queue bounds, overload policy, the write-ahead journal,
// and the observability layer (metrics, flight recorder).
type EngineOption func(*engineOptions)

// WithShards sets the number of lock stripes tenants are hash-partitioned
// across (default min(GOMAXPROCS, 8); at least 1).
func WithShards(n int) EngineOption {
	return func(o *engineOptions) {
		if n < 1 {
			o.fail(fmt.Errorf("%w: WithShards(%d): want at least 1 shard", ErrBadOption, n))
			return
		}
		o.shards, o.shardsSet = n, true
	}
}

// WithBatchSize sets the ingestion batch: Submit queues events per tenant
// and applies them whenever the queue reaches this size (default 256).
// Larger batches amortize loadtree maintenance further but delay
// load/latency samples, which are taken at batch boundaries.
func WithBatchSize(n int) EngineOption {
	return func(o *engineOptions) {
		if n < 1 {
			o.fail(fmt.Errorf("%w: WithBatchSize(%d): want at least 1 event per batch", ErrBadOption, n))
			return
		}
		o.batch, o.batchSet = n, true
	}
}

// WithAudit attaches an invariant checker to every tenant and applies
// events one at a time so the checker sees each placement. This trades
// away all batching throughput for per-event validation; use it in tests
// and canary runs, not in benchmarks.
func WithAudit() EngineOption {
	return func(o *engineOptions) { o.audit = true }
}

// WithMaxQueue bounds each tenant's ingestion queue to n events
// (0 = unbounded). What happens past the bound is WithOverloadPolicy's
// call.
func WithMaxQueue(n int) EngineOption {
	return func(o *engineOptions) {
		if n < 0 {
			o.fail(fmt.Errorf("%w: WithMaxQueue(%d): negative bound (0 means unbounded)", ErrBadOption, n))
			return
		}
		o.maxQueue, o.maxQueueSet = n, true
	}
}

// WithOverloadPolicy selects the over-bound behavior: OverloadBlock
// (default), OverloadShed, or OverloadDegrade.
func WithOverloadPolicy(p OverloadPolicy) EngineOption {
	return func(o *engineOptions) {
		switch p {
		case OverloadBlock, OverloadShed, OverloadDegrade:
			o.policy, o.policySet = p, true
		default:
			o.fail(fmt.Errorf("%w: WithOverloadPolicy(%v): unknown policy", ErrBadOption, p))
		}
	}
}

// WithDegradeBudget sets the per-tenant batch apply-latency budget the
// OverloadDegrade controller steers by (default 5ms).
func WithDegradeBudget(d time.Duration) EngineOption {
	return func(o *engineOptions) {
		if d <= 0 {
			o.fail(fmt.Errorf("%w: WithDegradeBudget(%v): want a positive budget", ErrBadOption, d))
			return
		}
		o.budget = d
	}
}

// WithReplayWatchdog bounds each Replay shard worker's wall time: a
// stalled allocator fails its shard with a timeout error instead of
// hanging the whole replay.
func WithReplayWatchdog(d time.Duration) EngineOption {
	return func(o *engineOptions) {
		if d <= 0 {
			o.fail(fmt.Errorf("%w: WithReplayWatchdog(%v): want a positive timeout", ErrBadOption, d))
			return
		}
		o.watchdog = d
	}
}

// WithBreaker tunes the poisoned-tenant circuit breaker's backoff
// (zero-valued fields keep their defaults).
func WithBreaker(b BreakerConfig) EngineOption {
	return func(o *engineOptions) {
		if b.Base < 0 || b.Max < 0 {
			o.fail(fmt.Errorf("%w: WithBreaker: negative backoff (base %v, max %v)", ErrBadOption, b.Base, b.Max))
			return
		}
		o.breaker, o.breakerSet = b, true
	}
}

// WithJournal turns on write-ahead journaling in dir: every ingestion
// call is appended to a segmented log before tenant state changes, the
// engine becomes recoverable with RecoverEngine, and poisoned tenants
// heal through the circuit breaker instead of staying down. Close the
// engine when done.
func WithJournal(dir string) EngineOption {
	return func(o *engineOptions) {
		if dir == "" {
			o.fail(fmt.Errorf("%w: WithJournal(\"\"): want a journal directory", ErrBadOption))
			return
		}
		o.journalDir = dir
	}
}

// WithSnapshotEvery checkpoints each tenant's full state into the
// journal every k applied batches. Snapshots buy two things: recovery
// becomes O(tail) — RecoverEngine restores each tenant from its latest
// snapshot and replays only the records after it — and the journal
// stays bounded, because segments older than every tenant's latest
// snapshot are deleted. The circuit breaker's half-open probe likewise
// restores the last pre-poison snapshot and replays only the tail after
// it. Without this option a journaled tenant has just its genesis
// snapshot, written by AddTenant, and the breaker's healing snapshots,
// so recovery and probes replay from there. Requires WithJournal.
func WithSnapshotEvery(k int) EngineOption {
	return func(o *engineOptions) {
		if k < 1 {
			o.fail(fmt.Errorf("%w: WithSnapshotEvery(%d): want at least 1 batch between snapshots", ErrBadOption, k))
			return
		}
		o.snapEvery = k
	}
}

// WithJournalSegmentBytes sets the journal's segment rotation threshold
// (default 4 MiB). Snapshot retention deletes whole sealed segments, so
// smaller segments mean tighter journal bounds and less to scan on
// recovery — at the cost of more files. A record larger than the
// threshold still lands whole in its own segment. Requires WithJournal.
func WithJournalSegmentBytes(n int64) EngineOption {
	return func(o *engineOptions) {
		if n < 1 {
			o.fail(fmt.Errorf("%w: WithJournalSegmentBytes(%d): want a positive threshold", ErrBadOption, n))
			return
		}
		o.segBytes = n
	}
}

// WithJournalSync selects the journal's fsync policy (default
// JournalSyncNever).
func WithJournalSync(p JournalSyncPolicy) EngineOption {
	return func(o *engineOptions) {
		switch p {
		case JournalSyncNever, JournalSyncBatched, JournalSyncAlways:
			o.sync, o.syncSet = p, true
		default:
			o.fail(fmt.Errorf("%w: WithJournalSync(%v): unknown policy", ErrBadOption, p))
		}
	}
}

// WithPlacement selects the tenant→shard routing policy (default
// PlacementHash). PlacementBalanced requires a power-of-two shard
// count: combine with WithShards(2^k), or omit WithShards and the
// engine rounds its default down to a power of two.
func WithPlacement(p PlacementPolicy) EngineOption {
	return func(o *engineOptions) {
		switch p {
		case PlacementHash, PlacementBalanced:
			o.placement, o.placeSet = p, true
		default:
			o.fail(fmt.Errorf("%w: WithPlacement(%v): unknown policy", ErrBadOption, p))
		}
	}
}

// WithRebalanceD sets the paper's d knob for PlacementBalanced routing:
// the virtual A_M(d) allocator repacks after d·shards units of tenant
// load arrive, and each rebalance pass moves at most d·shards tenants.
// Smaller d keeps shards tightly balanced at the cost of more moves
// (default 1; at least 1). Requires WithPlacement(PlacementBalanced).
func WithRebalanceD(d int) EngineOption {
	return func(o *engineOptions) {
		if d < 1 {
			o.fail(fmt.Errorf("%w: WithRebalanceD(%d): want d of at least 1", ErrBadOption, d))
			return
		}
		o.rebalD = d
	}
}

// WithRebalanceEvery sets how many applied batches elapse between
// rebalance passes (default 32; at least 1). Requires
// WithPlacement(PlacementBalanced).
func WithRebalanceEvery(k int) EngineOption {
	return func(o *engineOptions) {
		if k < 1 {
			o.fail(fmt.Errorf("%w: WithRebalanceEvery(%d): want a cadence of at least 1 batch", ErrBadOption, k))
			return
		}
		o.rebalEvery = k
	}
}

// WithMetrics attaches a metrics registry: the engine (and its journal)
// record per-tenant ledger gauges, apply/fsync latency histograms, and
// overload/breaker counters into m, renderable with
// Metrics.WritePrometheus. Share one registry across engines to scrape
// them from one endpoint. Without this option the engine records nothing
// and pays nothing.
func WithMetrics(m *Metrics) EngineOption {
	return func(o *engineOptions) {
		if m == nil {
			o.fail(fmt.Errorf("%w: WithMetrics(nil): want a registry from NewMetrics", ErrBadOption))
			return
		}
		o.metrics = m
	}
}

// WithFlightRecorder keeps the last n structured engine events (batch
// applies, sheds, degrade transitions, breaker trips/probes/heals, forced
// fault migrations, journal lifecycle) in a fixed-size ring, dumpable as
// JSONL via Engine.FlightRecorder — the post-incident "what just
// happened" record.
func WithFlightRecorder(n int) EngineOption {
	return func(o *engineOptions) {
		if n < 1 {
			o.fail(fmt.Errorf("%w: WithFlightRecorder(%d): want capacity for at least 1 event", ErrBadOption, n))
			return
		}
		o.flightN = n
	}
}

// WithPoisonDump writes the flight recorder's contents to w as JSONL the
// moment any tenant is poisoned, so the events leading up to a failure
// are captured even if the process dies before anyone scrapes them.
// Requires WithFlightRecorder.
func WithPoisonDump(w io.Writer) EngineOption {
	return func(o *engineOptions) {
		if w == nil {
			o.fail(fmt.Errorf("%w: WithPoisonDump(nil): want a writer", ErrBadOption))
			return
		}
		o.poisonDump = w
	}
}

// config folds the options into an engine.Config and builds the
// observability sink.
func (o *engineOptions) config() (EngineConfig, *obs.Sink, error) {
	if o.err != nil {
		return EngineConfig{}, nil, o.err
	}
	if o.poisonDump != nil && o.flightN == 0 {
		return EngineConfig{}, nil, fmt.Errorf("%w: WithPoisonDump requires WithFlightRecorder", ErrBadOption)
	}
	if o.snapEvery > 0 && o.journalDir == "" {
		return EngineConfig{}, nil, fmt.Errorf("%w: WithSnapshotEvery requires WithJournal", ErrBadOption)
	}
	if o.segBytes > 0 && o.journalDir == "" {
		return EngineConfig{}, nil, fmt.Errorf("%w: WithJournalSegmentBytes requires WithJournal", ErrBadOption)
	}
	balanced := o.placeSet && o.placement == PlacementBalanced
	if o.rebalD > 0 && !balanced {
		return EngineConfig{}, nil, fmt.Errorf("%w: WithRebalanceD requires WithPlacement(PlacementBalanced)", ErrBadOption)
	}
	if o.rebalEvery > 0 && !balanced {
		return EngineConfig{}, nil, fmt.Errorf("%w: WithRebalanceEvery requires WithPlacement(PlacementBalanced)", ErrBadOption)
	}
	if balanced && o.shardsSet && o.shards != mathx.FloorPow2(o.shards) {
		return EngineConfig{}, nil, fmt.Errorf("%w: WithPlacement(PlacementBalanced) requires a power-of-two shard count, got WithShards(%d)", ErrBadOption, o.shards)
	}
	var fr *obs.FlightRecorder
	if o.flightN > 0 {
		fr = obs.NewFlightRecorder(o.flightN)
	}
	sink := obs.NewSink(o.metrics, fr)
	if sink != nil && o.poisonDump != nil {
		sink.SetPoisonDump(o.poisonDump)
	}
	cfg := EngineConfig{
		Shards:         o.shards,
		BatchSize:      o.batch,
		Audit:          o.audit,
		DegradeBudget:  o.budget,
		ReplayWatchdog: o.watchdog,
		Rebuild:        rebuildSpec,
		SnapshotEvery:  o.snapEvery,
		Sink:           sink,
		Placement:      o.placement,
		RebalanceD:     o.rebalD,
		RebalanceEvery: o.rebalEvery,
	}
	if o.maxQueueSet {
		cfg.MaxQueue = o.maxQueue
	}
	if o.policySet {
		cfg.Overload = o.policy
	}
	if o.breakerSet {
		cfg.Breaker = o.breaker
	}
	return cfg, sink, nil
}

// Engine multiplexes many independent tenant machines behind one
// concurrent ingestion API: tenants are hash-partitioned across
// lock-striped shards, events are applied in batches through the
// allocators' batch fast path, and Replay fans out one worker per shard.
// Allocator panics (capacity exhaustion under faults, stream misuse) are
// converted into returned errors that poison the offending tenant and
// leave the rest of the fleet running. With WithMaxQueue the ingestion
// queues are bounded, and with WithJournal the engine survives crashes
// and heals poisoned tenants; see docs/ENGINE.md.
type Engine struct {
	eng  *engine.Engine
	sink *obs.Sink
}

// collect runs opts over a fresh engineOptions, catching nil options.
func collect(caller string, opts []EngineOption) (*engineOptions, error) {
	o := &engineOptions{}
	for _, opt := range opts {
		if opt == nil {
			return nil, fmt.Errorf("partalloc: %s: %w: nil EngineOption", caller, ErrBadOption)
		}
		opt(o)
	}
	return o, nil
}

// NewEngine builds an engine from options alone; the zero-option call
// selects the defaults (min(GOMAXPROCS, 8) shards, 256-event batches, no
// audit, no queue bound, no journal, no observability). Construction
// fails with ErrBadOption on the chain when an option is invalid, and
// with the journal's error when WithJournal cannot open its directory.
func NewEngine(opts ...EngineOption) (*Engine, error) {
	o, err := collect("NewEngine", opts)
	if err != nil {
		return nil, err
	}
	cfg, sink, err := o.config()
	if err != nil {
		return nil, fmt.Errorf("partalloc: NewEngine: %w", err)
	}
	if o.journalDir != "" {
		log, err := wal.Open(o.journalDir, wal.Options{Sync: o.sync, SegmentBytes: o.segBytes, Sink: sink})
		if err != nil {
			return nil, fmt.Errorf("partalloc: NewEngine: %w", err)
		}
		cfg.Journal = log
	}
	return &Engine{eng: engine.New(cfg), sink: sink}, nil
}

// NewEngineFromConfig builds an engine from the legacy EngineConfig
// struct plus options; non-zero struct fields are mapped onto the
// corresponding options, and explicit options win over struct fields.
//
// Deprecated: use NewEngine with WithShards, WithBatchSize, WithAudit,
// WithMaxQueue, WithOverloadPolicy, WithDegradeBudget,
// WithReplayWatchdog and WithBreaker instead.
func NewEngineFromConfig(cfg EngineConfig, opts ...EngineOption) (*Engine, error) {
	return NewEngine(append(optionsFromConfig(cfg), opts...)...)
}

// optionsFromConfig maps the legacy struct's non-zero fields onto the
// equivalent options, so the deprecated wrappers share the options-only
// construction path. Internal plumbing fields (Journal, Rebuild, Sink)
// are engine-owned and ignored.
func optionsFromConfig(cfg EngineConfig) []EngineOption {
	var opts []EngineOption
	if cfg.Shards > 0 {
		opts = append(opts, WithShards(cfg.Shards))
	}
	if cfg.BatchSize > 0 {
		opts = append(opts, WithBatchSize(cfg.BatchSize))
	}
	if cfg.Audit {
		opts = append(opts, WithAudit())
	}
	if cfg.MaxQueue > 0 {
		opts = append(opts, WithMaxQueue(cfg.MaxQueue))
	}
	if cfg.Overload != OverloadBlock {
		opts = append(opts, WithOverloadPolicy(cfg.Overload))
	}
	if cfg.DegradeBudget > 0 {
		opts = append(opts, WithDegradeBudget(cfg.DegradeBudget))
	}
	if cfg.ReplayWatchdog > 0 {
		opts = append(opts, WithReplayWatchdog(cfg.ReplayWatchdog))
	}
	if cfg.Breaker != (BreakerConfig{}) {
		opts = append(opts, WithBreaker(cfg.Breaker))
	}
	if cfg.Placement != PlacementHash {
		opts = append(opts, WithPlacement(cfg.Placement))
	}
	if cfg.RebalanceD > 0 {
		opts = append(opts, WithRebalanceD(cfg.RebalanceD))
	}
	if cfg.RebalanceEvery > 0 {
		opts = append(opts, WithRebalanceEvery(cfg.RebalanceEvery))
	}
	return opts
}

// RecoverEngine reconstructs a journaling engine from the log a crashed
// (or closed) engine left in dir: tenants are rebuilt from their
// registration records and every journaled ingestion call is re-applied,
// reproducing ledgers and queue contents exactly — including tenants the
// crash left poisoned. The recovered engine journals onward in the same
// directory. Pass the same options the original engine ran with;
// WithJournal is implied by dir.
func RecoverEngine(dir string, opts ...EngineOption) (*Engine, error) {
	o, err := collect("RecoverEngine", opts)
	if err != nil {
		return nil, err
	}
	if o.journalDir != "" && o.journalDir != dir {
		return nil, fmt.Errorf("partalloc: RecoverEngine: WithJournal(%q) conflicts with recovery directory %q", o.journalDir, dir)
	}
	o.journalDir = dir // WithJournal is implied; WithSnapshotEvery may rely on it
	cfg, sink, err := o.config()
	if err != nil {
		return nil, fmt.Errorf("partalloc: RecoverEngine: %w", err)
	}
	eng, err := engine.Recover(cfg, dir, wal.Options{Sync: o.sync, SegmentBytes: o.segBytes, Sink: sink})
	if err != nil {
		return nil, fmt.Errorf("partalloc: RecoverEngine: %w", err)
	}
	return &Engine{eng: eng, sink: sink}, nil
}

// RecoverEngineFromConfig is RecoverEngine taking the legacy
// EngineConfig struct; non-zero fields map onto options as in
// NewEngineFromConfig.
//
// Deprecated: use RecoverEngine(dir, opts...) instead.
func RecoverEngineFromConfig(cfg EngineConfig, dir string, opts ...EngineOption) (*Engine, error) {
	return RecoverEngine(dir, append(optionsFromConfig(cfg), opts...)...)
}

// Metrics returns the registry attached with WithMetrics (nil without
// it).
func (e *Engine) Metrics() *Metrics {
	if e.sink == nil {
		return nil
	}
	return e.sink.Metrics()
}

// FlightRecorder returns the event ring attached with WithFlightRecorder
// (nil without it).
func (e *Engine) FlightRecorder() *FlightRecorder {
	if e.sink == nil {
		return nil
	}
	return e.sink.FlightRecorder()
}

// Close releases the engine's journal, if any. Queued events are NOT
// flushed: they are journaled, and RecoverEngine restores them.
func (e *Engine) Close() error {
	if j := e.eng.Journal(); j != nil {
		return j.Close()
	}
	return nil
}

// AddTenant registers a tenant backed by a fresh allocator built exactly
// as New(algo, m, opts...) would, including WithFaults schedules, which
// the engine injects at the event indexes of the tenant's own stream, and
// WithTopology hosts, which price the tenant's migrations in network hops
// (EngineTenantStats.Topology/MigHops/ForcedHops). The same options are
// captured as the tenant's rebuild recipe, so on a journaling engine the
// tenant is recoverable and breaker-protected with no extra wiring.
func (e *Engine) AddTenant(id string, algo Algorithm, m *Machine, opts ...Option) error {
	a, err := New(algo, m, opts...)
	if err != nil {
		return err
	}
	ua, sched, host := unwrapRun(a)
	spec, err := tenantSpec(id, algo, m, opts)
	if err != nil {
		return err
	}
	topts := []engine.TenantOption{engine.WithTenantSpec(spec)}
	if sched != nil {
		topts = append(topts, engine.WithTenantFaults(sched))
	}
	if host != nil {
		topts = append(topts, engine.WithTenantHost(host))
	}
	return e.eng.AddTenant(id, ua, topts...)
}

// Submit queues events for a tenant, applying a batch whenever the
// queue reaches the configured batch size. Past a WithMaxQueue bound the
// overload policy takes over: OverloadBlock and OverloadDegrade admit in
// bound-sized chunks, OverloadShed fails with ErrOverloaded.
func (e *Engine) Submit(id string, evs ...Event) error {
	return e.eng.Submit(id, evs...)
}

// Flush applies a tenant's queued events immediately.
func (e *Engine) Flush(id string) error { return e.eng.Flush(id) }

// FlushAll flushes every tenant and returns the first error.
func (e *Engine) FlushAll() error { return e.eng.FlushAll() }

// Replay feeds each tenant its stream in batches, one parallel worker
// per shard. Cancelling ctx drains the batches in flight and returns
// ctx.Err(), like every other context-aware entry point.
func (e *Engine) Replay(ctx context.Context, streams map[string][]Event) error {
	return e.eng.Replay(ctx, streams)
}

// Tenants returns all tenant IDs in sorted order.
func (e *Engine) Tenants() []string { return e.eng.Tenants() }

// TenantStats snapshots one tenant's ledger.
func (e *Engine) TenantStats(id string) (EngineTenantStats, error) {
	return e.eng.TenantStats(id)
}

// Stats snapshots every tenant's ledger in sorted ID order.
func (e *Engine) Stats() []EngineTenantStats { return e.eng.Stats() }

// Err returns the tenant's poisoning error (nil while healthy).
func (e *Engine) Err(id string) error { return e.eng.Err(id) }

// RecoveryStats reports how this engine was reconstructed from its
// journal; all-zero for an engine built with NewEngine.
func (e *Engine) RecoveryStats() RecoveryStats { return e.eng.RecoveryStats() }

// ShardStats snapshots every shard's load ledger in index order.
func (e *Engine) ShardStats() []EngineShardStats { return e.eng.ShardStats() }

// ResetShardPeaks restarts every shard's peak-backlog high-water
// (EngineShardStats.PeakQueued) from its current backlog, scoping the
// peak to a measurement window instead of the engine's lifetime.
func (e *Engine) ResetShardPeaks() { e.eng.ResetShardPeaks() }

// Routes snapshots the tenant→shard routing table. Under PlacementHash
// every tenant maps to fnv32a(id) mod shards; under PlacementBalanced
// the table reflects rebalance moves.
func (e *Engine) Routes() map[string]int { return e.eng.Routes() }

// RebalanceStats reports the engine's placement rebalancing ledger;
// all-zero under PlacementHash.
func (e *Engine) RebalanceStats() RebalanceStats { return e.eng.RebalanceStats() }

// Rebalance forces one placement rebalance pass now, regardless of the
// WithRebalanceEvery cadence, and reports how many tenants moved. A
// no-op under PlacementHash. A move that fails leaves its tenant where
// it was; the first such error is returned after the pass completes.
func (e *Engine) Rebalance() (int, error) { return e.eng.Rebalance() }

// MoveTenant rebalances tenant id onto dst with no event replay: the
// tenant travels as one snapshot (allocator state, queued events,
// ledger, audit state). An explicit admin call — the engine never moves
// tenants on its own. The tenant must be healthy; dst journals the
// snapshot (when journaling) and the source journals the removal, so
// each engine's log recovers its own post-move view. A crash between
// the two journal writes can leave the tenant on both engines
// (at-least-once); it is never lost.
func (e *Engine) MoveTenant(id string, dst *Engine) error {
	if dst == nil {
		return fmt.Errorf("partalloc: MoveTenant(%q): nil destination engine", id)
	}
	return e.eng.MoveTenant(id, dst.eng)
}

// CanonicalEngineStats renders a tenant snapshot as deterministic JSON
// with every wall-clock-derived field cleared, for byte-for-byte
// comparison across runs — the form in which a recovered engine's
// ledgers equal an uninterrupted run's.
func CanonicalEngineStats(st EngineTenantStats) []byte {
	return engine.CanonicalStats(st)
}

// tenantSpec captures an AddTenant call as a serializable rebuild
// recipe: the exact algorithm, machine size, and options, with the fault
// schedule in its text format and the topology by name. rebuildSpec
// inverts it through the same New constructor, so the pair cannot drift
// from what AddTenant actually built.
func tenantSpec(id string, algo Algorithm, m *Machine, opts []Option) (engine.TenantSpec, error) {
	c := config{order: DecreasingSize, seed: 1}
	for _, o := range opts {
		o(&c)
	}
	spec := engine.TenantSpec{
		ID:        id,
		Algorithm: algo.String(),
		N:         m.N(),
		D:         c.d,
		DSet:      c.dSet,
		Seed:      c.seed,
		SeedSet:   c.seedSet,
	}
	if c.orderSet {
		spec.Order = c.order.String()
	}
	if c.top != nil {
		spec.Topology = c.top.Name()
	}
	if c.faults != nil {
		// The raw schedule names physical PEs; serialize it untranslated
		// so rebuilding re-runs the same topology mapping New did.
		var b strings.Builder
		if err := fault.WriteText(&b, *c.faults); err != nil {
			return engine.TenantSpec{}, fmt.Errorf("partalloc: AddTenant(%q): %w", id, err)
		}
		spec.Faults = b.String()
	}
	return spec, nil
}

// rebuildSpec is the engine.RebuildFunc the facade installs: it turns a
// tenantSpec recipe back into options and rebuilds the allocator through
// New, exactly as the original AddTenant did.
func rebuildSpec(spec engine.TenantSpec) (core.Allocator, *fault.Schedule, *topology.Host, error) {
	algo, err := ParseAlgorithm(spec.Algorithm)
	if err != nil {
		return nil, nil, nil, err
	}
	m, err := NewMachine(spec.N)
	if err != nil {
		return nil, nil, nil, err
	}
	var opts []Option
	if spec.DSet {
		opts = append(opts, WithD(spec.D))
	}
	if spec.Order != "" {
		order, err := parseReallocOrder(spec.Order)
		if err != nil {
			return nil, nil, nil, err
		}
		opts = append(opts, WithOrder(order))
	}
	if spec.SeedSet {
		opts = append(opts, WithSeed(spec.Seed))
	}
	if spec.Topology != "" {
		top, err := NewTopology(spec.Topology, spec.N)
		if err != nil {
			return nil, nil, nil, err
		}
		opts = append(opts, WithTopology(top))
	}
	if spec.Faults != "" {
		sched, err := fault.ParseText(strings.NewReader(spec.Faults), spec.N)
		if err != nil {
			return nil, nil, nil, err
		}
		opts = append(opts, WithFaults(sched))
	}
	a, err := New(algo, m, opts...)
	if err != nil {
		return nil, nil, nil, err
	}
	ua, sched, host := unwrapRun(a)
	return ua, sched, host, nil
}

// parseReallocOrder inverts ReallocOrder.String.
func parseReallocOrder(s string) (ReallocOrder, error) {
	switch s {
	case DecreasingSize.String():
		return DecreasingSize, nil
	case ArrivalOrder.String():
		return ArrivalOrder, nil
	}
	return 0, fmt.Errorf("partalloc: unknown reallocation order %q", s)
}
