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
	// PlacementBalanced routes through a mutable table: a new tenant
	// goes to the shard with the fewest tenants, and periodic rebalance
	// passes move tenants off the most-loaded shard while a move lowers
	// it, at most d·shards moves per pass. See docs/ENGINE.md.
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
	// JournalSyncNever issues no fsync on the append path: a process
	// crash (SIGKILL included) loses nothing, power loss a suffix of the
	// journal. The default.
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

// engineOptions accumulates EngineOptions. Options validate eagerly and
// write straight into the engine and journal configurations, whose zero
// fields select internal/engine's and internal/wal's defaults; the first
// invalid option wins and fails construction with ErrBadOption on the
// error chain, naming the offending option.
type engineOptions struct {
	cfg engine.Config
	wal wal.Options

	journalDir string
	metrics    *Metrics
	flightN    int
	poisonDump io.Writer
	err        error
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

// WithShards sets the number of lock stripes tenants are partitioned
// across (default min(GOMAXPROCS, 8); at least 1). WithPlacement decides
// which shard each tenant lands on.
func WithShards(n int) EngineOption {
	return func(o *engineOptions) {
		if n < 1 {
			o.fail(fmt.Errorf("%w: WithShards(%d): want at least 1 shard", ErrBadOption, n))
			return
		}
		o.cfg.Shards = n
	}
}

// WithBatchSize sets the ingestion batch: Submit applies a tenant's
// events in batches of this size (default 256) and queues the
// remainder, under one batch, for a later Submit or Flush. Larger
// batches amortize loadtree maintenance further but delay load/latency
// samples, which are taken at batch boundaries.
func WithBatchSize(n int) EngineOption {
	return func(o *engineOptions) {
		if n < 1 {
			o.fail(fmt.Errorf("%w: WithBatchSize(%d): want at least 1 event per batch", ErrBadOption, n))
			return
		}
		o.cfg.BatchSize = n
	}
}

// WithAudit attaches an invariant checker to every tenant and applies
// events one at a time, so the checker sees each placement and the
// tenant's PeakLoad samples the load after every event. This trades away
// all batching throughput for per-event validation; use it in tests and
// canary runs, not in benchmarks.
func WithAudit() EngineOption {
	return func(o *engineOptions) { o.cfg.Audit = true }
}

// WithMaxQueue bounds each tenant's ingestion queue to n events
// (0 = unbounded). A bound below the batch size lowers the batch size to
// it, for Submit and Replay alike. What happens past the bound is
// WithOverloadPolicy's call. RecoverEngine and MoveTenant refuse a
// snapshot that queues more events than the bound.
func WithMaxQueue(n int) EngineOption {
	return func(o *engineOptions) {
		if n < 0 {
			o.fail(fmt.Errorf("%w: WithMaxQueue(%d): negative bound (0 means unbounded)", ErrBadOption, n))
			return
		}
		o.cfg.MaxQueue = n
	}
}

// WithOverloadPolicy selects the over-bound behavior: OverloadBlock
// (default), OverloadShed, or OverloadDegrade.
func WithOverloadPolicy(p OverloadPolicy) EngineOption {
	return func(o *engineOptions) {
		switch p {
		case OverloadBlock, OverloadShed, OverloadDegrade:
			o.cfg.Overload = p
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
		o.cfg.DegradeBudget = d
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
		o.cfg.ReplayWatchdog = d
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
		o.cfg.Breaker = b
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
		o.cfg.SnapshotEvery = k
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
		o.wal.SegmentBytes = n
	}
}

// WithJournalSync selects the journal's fsync policy (default
// JournalSyncNever). Any other policy requires WithJournal.
func WithJournalSync(p JournalSyncPolicy) EngineOption {
	return func(o *engineOptions) {
		switch p {
		case JournalSyncNever, JournalSyncBatched, JournalSyncAlways:
			o.wal.Sync = p
		default:
			o.fail(fmt.Errorf("%w: WithJournalSync(%v): unknown policy", ErrBadOption, p))
		}
	}
}

// WithPlacement selects the tenant→shard routing policy (default
// PlacementHash). Either policy works with any shard count.
func WithPlacement(p PlacementPolicy) EngineOption {
	return func(o *engineOptions) {
		switch p {
		case PlacementHash, PlacementBalanced:
			o.cfg.Placement = p
		default:
			o.fail(fmt.Errorf("%w: WithPlacement(%v): unknown policy", ErrBadOption, p))
		}
	}
}

// WithRebalanceD sets the per-pass move budget of PlacementBalanced
// routing: each rebalance pass moves at most d·shards tenants (default
// 1; at least 1). Requires WithPlacement(PlacementBalanced).
func WithRebalanceD(d int) EngineOption {
	return func(o *engineOptions) {
		if d < 1 {
			o.fail(fmt.Errorf("%w: WithRebalanceD(%d): want d of at least 1", ErrBadOption, d))
			return
		}
		o.cfg.RebalanceD = d
	}
}

// WithRebalanceEvery sets how many applied batches elapse between the
// points at which rebalance passes fall due (default 32; at least 1).
// Requires WithPlacement(PlacementBalanced).
func WithRebalanceEvery(k int) EngineOption {
	return func(o *engineOptions) {
		if k < 1 {
			o.fail(fmt.Errorf("%w: WithRebalanceEvery(%d): want a cadence of at least 1 batch", ErrBadOption, k))
			return
		}
		o.cfg.RebalanceEvery = k
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

// finish checks the rules that span several options and wires the
// observability sink into the engine and journal configurations.
func (o *engineOptions) finish() error {
	if o.err != nil {
		return o.err
	}
	if o.poisonDump != nil && o.flightN == 0 {
		return fmt.Errorf("%w: WithPoisonDump requires WithFlightRecorder", ErrBadOption)
	}
	if o.cfg.SnapshotEvery > 0 && o.journalDir == "" {
		return fmt.Errorf("%w: WithSnapshotEvery requires WithJournal", ErrBadOption)
	}
	if o.wal.SegmentBytes > 0 && o.journalDir == "" {
		return fmt.Errorf("%w: WithJournalSegmentBytes requires WithJournal", ErrBadOption)
	}
	if o.wal.Sync != JournalSyncNever && o.journalDir == "" {
		return fmt.Errorf("%w: WithJournalSync(%v) requires WithJournal", ErrBadOption, o.wal.Sync)
	}
	balanced := o.cfg.Placement == PlacementBalanced
	if o.cfg.RebalanceD > 0 && !balanced {
		return fmt.Errorf("%w: WithRebalanceD requires WithPlacement(PlacementBalanced)", ErrBadOption)
	}
	if o.cfg.RebalanceEvery > 0 && !balanced {
		return fmt.Errorf("%w: WithRebalanceEvery requires WithPlacement(PlacementBalanced)", ErrBadOption)
	}
	var fr *obs.FlightRecorder
	if o.flightN > 0 {
		fr = obs.NewFlightRecorder(o.flightN)
	}
	sink := obs.NewSink(o.metrics, fr)
	if sink != nil && o.poisonDump != nil {
		sink.SetPoisonDump(o.poisonDump)
	}
	o.cfg.Sink, o.wal.Sink = sink, sink
	return nil
}

// Engine multiplexes many independent tenant machines behind one
// concurrent ingestion API: the WithPlacement policy spreads tenants
// across lock-striped shards, events are applied in batches through the
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
	o := &engineOptions{cfg: engine.Config{Rebuild: rebuildSpec}}
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
	if err := o.finish(); err != nil {
		return nil, fmt.Errorf("partalloc: NewEngine: %w", err)
	}
	if o.journalDir != "" {
		log, err := wal.Open(o.journalDir, o.wal)
		if err != nil {
			return nil, fmt.Errorf("partalloc: NewEngine: %w", err)
		}
		o.cfg.Journal = log
	}
	return &Engine{eng: engine.New(o.cfg), sink: o.cfg.Sink}, nil
}

// RecoverEngine reconstructs a journaling engine from the log a crashed
// (or closed) engine left in dir: each tenant is restored from its latest
// journaled snapshot — the genesis snapshot AddTenant wrote, when it took
// no later one — and the ingestion calls journaled after that snapshot
// are re-applied, reproducing ledgers and queue contents exactly,
// including tenants the crash left poisoned. The recovered engine
// journals onward in the same directory. Pass the same options the
// original engine ran with; WithJournal is implied by dir and may only
// repeat it.
func RecoverEngine(dir string, opts ...EngineOption) (*Engine, error) {
	o, err := collect("RecoverEngine", opts)
	if err != nil {
		return nil, err
	}
	if o.journalDir != "" && o.journalDir != dir {
		return nil, fmt.Errorf("partalloc: RecoverEngine: %w: WithJournal(%q) conflicts with recovery directory %q", ErrBadOption, o.journalDir, dir)
	}
	o.journalDir = dir // WithJournal is implied; the journal options may rely on it
	if err := o.finish(); err != nil {
		return nil, fmt.Errorf("partalloc: RecoverEngine: %w", err)
	}
	eng, err := engine.Recover(o.cfg, dir, o.wal)
	if err != nil {
		return nil, fmt.Errorf("partalloc: RecoverEngine: %w", err)
	}
	return &Engine{eng: eng, sink: o.cfg.Sink}, nil
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
	c := newConfig(opts)
	a, err := c.build(algo, m)
	if err != nil {
		return err
	}
	ua, sched, host := unwrapRun(a)
	spec, err := c.tenantSpec(id, algo, m)
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
// queue reaches the configured batch size. Full batches apply straight
// from evs, which the engine neither keeps nor writes, so the caller may
// reuse it once Submit returns. Past a WithMaxQueue bound the overload
// policy takes over: OverloadBlock and OverloadDegrade admit in
// bound-sized chunks, OverloadShed fails with ErrOverloaded.
func (e *Engine) Submit(id string, evs ...Event) error {
	return e.eng.Submit(id, evs...)
}

// Flush applies a tenant's queued events immediately.
func (e *Engine) Flush(id string) error { return e.eng.Flush(id) }

// FlushAll flushes every tenant and returns the first error.
func (e *Engine) FlushAll() error { return e.eng.FlushAll() }

// Replay feeds each tenant its stream, one parallel worker per shard,
// through the same calls a client makes: a Flush, one Submit per
// batch-sized chunk, and a Flush for the remainder. So replayed events
// are batched, journaled and rebalanced exactly as submitted ones. ctx
// must be non-nil; a nil ctx is an error. Cancelling ctx drains the
// batches in flight and returns ctx.Err(), like every other
// context-aware entry point.
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
// (at-least-once); it is never lost. dst refuses a tenant it cannot
// hold, and the tenant stays on the source: one whose queue is longer
// than dst's WithMaxQueue bound, or one without audit state when dst
// runs WithAudit.
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
// inverts it into the same config and builds through it, so the pair
// cannot drift from what AddTenant actually built.
func (c config) tenantSpec(id string, algo Algorithm, m *Machine) (engine.TenantSpec, error) {
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
// tenantSpec recipe back into the config AddTenant resolved and builds
// the allocator from it, exactly as the original AddTenant did.
func rebuildSpec(spec engine.TenantSpec) (core.Allocator, *fault.Schedule, *topology.Host, error) {
	algo, err := ParseAlgorithm(spec.Algorithm)
	if err != nil {
		return nil, nil, nil, err
	}
	m, err := NewMachine(spec.N)
	if err != nil {
		return nil, nil, nil, err
	}
	c := newConfig(nil)
	c.d, c.dSet = spec.D, spec.DSet
	if spec.Order != "" {
		if c.order, err = parseReallocOrder(spec.Order); err != nil {
			return nil, nil, nil, err
		}
		c.orderSet = true
	}
	if spec.SeedSet {
		c.seed, c.seedSet = spec.Seed, true
	}
	if spec.Topology != "" {
		if c.top, err = NewTopology(spec.Topology, spec.N); err != nil {
			return nil, nil, nil, err
		}
	}
	if spec.Faults != "" {
		sched, err := fault.ParseText(strings.NewReader(spec.Faults), spec.N)
		if err != nil {
			return nil, nil, nil, err
		}
		c.faults = &sched
	}
	a, err := c.build(algo, m)
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
