// The placement layer: the tenant registry and tenant→shard routing as
// a first-class, mutable concern. Every tenant lookup and shard
// addressing decision in the engine flows through the routing table —
// this file owns the only code allowed to index e.shards or hash tenant
// IDs (enforced by the placer lint), and the only code that writes where
// a tenant lives.
//
// One table serves both policies:
//
//   - PlacementHash: the historical behavior — fnv-32a(id) mod shards.
//     Routes never change, so the engine is byte-identical to the
//     pre-placement-layer code (gated by TestHashPlacementGolden).
//   - PlacementBalanced: a load-levelling greedy over the routing table.
//     A new tenant goes to the shard with the fewest tenants. Every
//     Config.RebalanceEvery applied batches, a pass weighs each tenant
//     by its decayed event count and, at most d·shards times, moves a
//     tenant from the most-loaded shard to the least-loaded one when
//     its load is below half the gap between them (moveTenantLocal),
//     journaling each move as a wal.TypeMove record so Recover replays
//     routing exactly. A levelled fleet moves nothing.
//
// The routing table is the tenant registry: each route holds the tenant
// itself beside its stripe. A tenant's route and its own stripe field
// are one fact kept in two places, so they are written together: admit
// and relocate write both under rebalMu and the tenant's lock, and evict
// drops the route under both. Lookups find the tenant in the registry
// and lock it (lockTenant); a stripe locks nothing, so a move changes
// which stripe a tenant's ledger counts toward, never which lock guards
// it. Each tenant carries its load meter, which its lock holder
// publishes its event count to, so a pass measures the fleet under
// rebalMu alone and locks only the tenants it moves. The lock order is
// rebalMu → tenant → jmu.
package engine

import (
	"cmp"
	"fmt"
	"hash/fnv"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"partalloc/internal/invariant"
	"partalloc/internal/wal"
)

// PlacementPolicy selects how the engine seats tenants on shards.
type PlacementPolicy int

const (
	// PlacementHash routes tenants by fnv-32a hash (the default and the
	// historical behavior).
	PlacementHash PlacementPolicy = iota
	// PlacementBalanced seats each new tenant on the shard with the
	// fewest tenants, and rebalance passes level shards by measured load.
	PlacementBalanced
)

// String names the policy for flags and reports.
func (p PlacementPolicy) String() string {
	switch p {
	case PlacementHash:
		return "hash"
	case PlacementBalanced:
		return "balanced"
	}
	return fmt.Sprintf("PlacementPolicy(%d)", int(p))
}

// hashShard is the deterministic default route: fnv-32a(id) mod shards.
// It is the single tenant-hashing site in the engine (placer lint).
func hashShard(id string, shards int) int {
	h := fnv.New32a()
	h.Write([]byte(id))
	return int(h.Sum32()) % shards
}

// routing is the engine's tenant registry and tenant→shard table: it
// holds exactly the registered tenants, and its policy decides where a
// new one goes. Its own mutex lets ingestion look tenants up while a
// pass rewrites routes. The table is recovered from the journal
// (snapshot Shard fields plus TypeMove records).
type routing struct {
	policy PlacementPolicy
	shards int
	mu     sync.RWMutex
	routes map[string]route
}

// route is one registered tenant's entry: its stripe and the tenant.
type route struct {
	shard int
	t     *tenant
}

// loadMeter is a tenant's load as rebalance passes see it, read
// without the tenant's lock.
type loadMeter struct {
	// events and poisoned mirror t.events and t.err != nil. They are
	// written only by the holder of the tenant's lock (apply, poison, a
	// breaker heal and a snapshot restore) and read under rebalMu alone
	// (measure). events never runs backwards (publish), and a heal clears
	// poisoned only once it has succeeded.
	events   atomic.Int64
	poisoned atomic.Bool
	// mark is events at the last pass that measured the tenant, and est
	// the decayed accumulator of the windows since (rebalDecay). Both are
	// written and read only under rebalMu.
	mark int64
	est  float64
}

// publish raises the published event count to n. A heal restores a
// snapshot's lower count and replays back up to the one it had, so only
// a count above the last one published is stored, and a pass never
// sees a window run backwards. The caller holds the tenant's lock,
// which makes it the only writer, so a load then a store suffices.
func (m *loadMeter) publish(n int64) {
	if n > m.events.Load() {
		m.events.Store(n)
	}
}

// fold adds the events published since the last pass to the estimate
// and returns it; ok is false for a poisoned tenant, whose route stays
// frozen until it heals. Callers hold rebalMu.
func (m *loadMeter) fold() (est float64, ok bool) {
	if m.poisoned.Load() {
		return 0, false
	}
	n := m.events.Load()
	m.est = rebalDecay*m.est + float64(n-m.mark)
	m.mark = n
	return m.est, true
}

// newRouting returns an empty table over shards stripes.
func newRouting(policy PlacementPolicy, shards int) *routing {
	return &routing{policy: policy, shards: shards, routes: make(map[string]route)}
}

// lookup returns the tenant's route; ok is false for a tenant that is
// not registered.
func (r *routing) lookup(id string) (route, bool) {
	r.mu.RLock()
	rt, ok := r.routes[id]
	r.mu.RUnlock()
	return rt, ok
}

// counts returns the number of tenants routed to each stripe.
func (r *routing) counts() []int {
	count := make([]int, r.shards)
	r.mu.RLock()
	for _, rt := range r.routes {
		count[rt.shard]++
	}
	r.mu.RUnlock()
	return count
}

// choose returns the shard a new tenant goes to, without recording it.
// Under PlacementHash that is the hash default. Under PlacementBalanced
// it is the shard with the fewest tenants, lowest index first, so a
// fleet registered before its first pass starts spread evenly, and a
// removed tenant's shard is refilled first.
func (r *routing) choose(id string) int {
	if r.policy != PlacementBalanced {
		return hashShard(id, r.shards)
	}
	count := r.counts()
	best := 0
	for s := 1; s < r.shards; s++ {
		if count[s] < count[best] {
			best = s
		}
	}
	return best
}

// set records tenant t as id's, routed to shard; drop forgets id. Only
// admit, relocate and evict call them, each with the matching write of
// the tenant's own stripe field, so every write of the table holds
// rebalMu.
func (r *routing) set(id string, shard int, t *tenant) {
	r.mu.Lock()
	r.routes[id] = route{shard: shard, t: t}
	r.mu.Unlock()
}

func (r *routing) drop(id string) {
	r.mu.Lock()
	delete(r.routes, id)
	r.mu.Unlock()
}

// measure folds each healthy tenant's published events into its load
// estimate (loadMeter.fold) and returns the estimates. It reads only
// the meters, so it takes no tenant's lock. Callers hold rebalMu, which
// owns every meter's mark and estimate and freezes the table's
// membership.
func (r *routing) measure() map[string]float64 {
	r.mu.RLock()
	defer r.mu.RUnlock()
	loads := make(map[string]float64, len(r.routes))
	for id, rt := range r.routes {
		if est, ok := rt.t.meter.fold(); ok {
			loads[id] = est
		}
	}
	return loads
}

// snapshot copies the table (tenant → shard index).
func (r *routing) snapshot() map[string]int {
	r.mu.RLock()
	out := make(map[string]int, len(r.routes))
	for id, rt := range r.routes {
		out[id] = rt.shard
	}
	r.mu.RUnlock()
	return out
}

// Move is one planned intra-engine tenant move.
type Move struct {
	Tenant   string
	From, To int
}

// Plan levels shard loads from the current routes. While budget
// remains, it takes the most-loaded shard (hot) and the least-loaded
// one (cold), lowest index on ties, and moves the heaviest tenant on
// hot whose load is positive and below half the gap between the two,
// lowest ID on ties. Below half the gap the two shards cannot swap
// roles, so every move lowers the larger of their loads, and the sum
// of squared shard loads falls strictly, so the loop ends. It stops
// when no tenant qualifies: a levelled fleet plans nothing. An idle
// tenant, whose estimate has decayed to 0, lowers nothing by moving.
// Moves come in greedy order, not always heaviest first: a later move
// can take a heavier tenant off another hot shard. Tenants in the
// table but absent from loads (poisoned when measured) keep their
// routes and weigh nothing.
func (r *routing) Plan(loads map[string]float64, budget int) []Move {
	type seat struct {
		id    string
		load  float64
		shard int
	}
	seats := make([]seat, 0, len(loads))
	r.mu.RLock()
	for id, load := range loads {
		if rt, ok := r.routes[id]; ok {
			seats = append(seats, seat{id: id, load: load, shard: rt.shard})
		}
	}
	r.mu.RUnlock()
	// One order for the sums and the tie-breaks: map order reaches
	// neither.
	slices.SortFunc(seats, func(a, b seat) int {
		if c := cmp.Compare(b.load, a.load); c != 0 {
			return c
		}
		return strings.Compare(a.id, b.id)
	})
	sum := make([]float64, r.shards)
	for _, st := range seats {
		sum[st.shard] += st.load
	}
	var moves []Move
	for len(moves) < budget {
		hot, cold := slices.Index(sum, slices.Max(sum)), slices.Index(sum, slices.Min(sum))
		half := (sum[hot] - sum[cold]) / 2
		i := slices.IndexFunc(seats, func(st seat) bool {
			return st.shard == hot && st.load > 0 && st.load < half
		})
		if i < 0 {
			break
		}
		st := &seats[i]
		st.shard = cold
		sum[hot] -= st.load
		sum[cold] += st.load
		moves = append(moves, Move{Tenant: st.id, From: hot, To: cold})
	}
	return moves
}

// newShards allocates the stripes; the only shard-slice construction
// site.
func newShards(n int) []*shard {
	shards := make([]*shard, n)
	for i := range shards {
		shards[i] = new(shard)
	}
	return shards
}

// route returns the tenant's shard index, 0 for a tenant that is not
// registered. The answer is a point in time: a pass can move the tenant
// before the caller acts on it, so paths that operate on the tenant use
// lockTenant.
func (e *Engine) route(id string) int {
	rt, _ := e.routing.lookup(id)
	return rt.shard
}

// shardAt returns the stripe at index idx; the only e.shards indexing
// site outside construction.
func (e *Engine) shardAt(idx int) *shard {
	return e.shards[idx]
}

// lockTenant finds id in the registry and returns the tenant locked, or
// nil when id is not registered. A tenant that left the registry while
// the call waited for its lock (evict) is gone, and the lookup starts
// over: a tenant MoveTenant brought back is a new one.
func (e *Engine) lockTenant(id string) *tenant {
	for {
		rt, ok := e.routing.lookup(id)
		if !ok {
			return nil
		}
		t := rt.t
		t.mu.Lock()
		if !t.gone {
			//lint:ignore lockorder lockTenant transfers t.mu to the caller by contract; every caller unlocks it
			return t
		}
		t.mu.Unlock()
	}
}

// admit registers t on stripe t.shardIdx, the one way in: register
// (AddTenant and MoveTenant's arrival) and recovery (restoreSnapshot).
// The tenant stays invisible until its route is written, so none of its
// records can reach the journal before the snapshot register appends
// first, and nothing needs undoing when that append fails; until then
// nothing else can reach t, so admit needs no tenant lock. It credits
// the stripe with the tenant's ledgers. Callers hold rebalMu, or are
// Recover.
func (e *Engine) admit(t *tenant) {
	if e.cfg.Journal != nil {
		// Size the journal scratch here, off the ingestion path, for a
		// Submit record of one batch at 16 bytes an event (a kind byte,
		// the 8-byte time and room for the ID and size varints).
		t.enc = make([]byte, 0, 16*e.cfg.BatchSize)
	}
	e.shardAt(t.shardIdx).credit(t, 1)
	e.routing.set(t.id, t.shardIdx, t)
	// Pre-creates every per-tenant series so gauges (breaker state, queue
	// depth) are scrapeable as 0 before the first batch.
	e.cfg.Sink.TenantRegistered(t.id)
}

// evict unregisters t, takes its share out of its stripe's ledgers and
// drops its compaction watermark: MoveTenant's removal. Callers hold
// rebalMu and t.mu.
func (e *Engine) evict(t *tenant) {
	e.routing.drop(t.id)
	e.shardAt(t.shardIdx).credit(t, -1)
	t.gone = true
	e.jmu.Lock()
	delete(e.snapSeg, t.id)
	e.jmu.Unlock()
}

// members returns each registered tenant's own stripe field, the other
// half of the fact its route records. Callers hold rebalMu, which every
// write of either half holds.
func (e *Engine) members() map[string]int {
	e.routing.mu.RLock()
	defer e.routing.mu.RUnlock()
	out := make(map[string]int, len(e.routing.routes))
	for id, rt := range e.routing.routes {
		out[id] = rt.t.shardIdx
	}
	return out
}

// ShardStats is a point-in-time ledger for one stripe. Every figure but
// PeakQueued is a sum over the tenants routed there: a tenant's share
// moves with it when a pass relocates it, leaves with MoveTenant, and is
// restated when a breaker heal rebuilds the tenant.
type ShardStats struct {
	// Shard is the stripe index.
	Shard int
	// Tenants is the number of tenants currently routed here.
	Tenants int
	// Queued is the sum of the resident tenants' queue depths.
	Queued int
	// PeakQueued is the highest backlog observed at an ingestion
	// boundary: Queued plus events in submissions still waiting for
	// their tenant's lock. It is the hot-shard pressure measure the skew
	// benchmark reports — a stripe loaded beyond its drain rate shows
	// up here as queues and submitters piling up on its tenants.
	PeakQueued int
	// Events is the sum of the resident tenants' applied events
	// (TenantStats.Events).
	Events int64
	// ApplyNs is the sum of the resident tenants' apply time
	// (TenantStats.ApplyNs).
	ApplyNs int64
}

// ShardStats snapshots every stripe's ledger in index order. It takes
// no tenant's lock: each figure is one atomic read.
func (e *Engine) ShardStats() []ShardStats {
	count := e.routing.counts()
	out := make([]ShardStats, len(e.shards))
	for i, s := range e.shards {
		out[i] = ShardStats{
			Shard:      i,
			Tenants:    count[i],
			Queued:     int(s.queued.Load()),
			PeakQueued: int(s.peakQueued.Load()),
			Events:     s.events.Load(),
			ApplyNs:    s.applyNs.Load(),
		}
	}
	return out
}

// Routes snapshots the routing table (tenant → shard index).
func (e *Engine) Routes() map[string]int { return e.routing.snapshot() }

// RebalanceStats is the cumulative ledger of balanced placement's
// rebalance passes.
type RebalanceStats struct {
	// Passes counts completed rebalance passes.
	Passes int64
	// Planned counts moves the plans proposed (within budget).
	Planned int64
	// Moves counts moves actually performed.
	Moves int64
	// LastPassMoves is the move count of the most recent pass.
	LastPassMoves int
	// Violations holds routing-consistency and move-budget findings
	// from the per-pass invariant audit; empty on a healthy engine.
	Violations []invariant.Violation
}

// RebalanceStats snapshots the rebalance ledger.
func (e *Engine) RebalanceStats() RebalanceStats {
	e.rsMu.Lock()
	defer e.rsMu.Unlock()
	st := e.rebalStats
	st.Violations = append([]invariant.Violation(nil), e.rebalStats.Violations...)
	return st
}

// maybeRebalance runs a rebalance pass when the engine-wide batch
// counter has crossed the due point. The next pass is due RebalanceEvery
// batches after the crossed point, so neither the batches that applied
// between the crossing and this pass nor the pass's own length shift
// the cadence; when the count has already passed that point too (one
// call crossed two points, or a running pass kept this one waiting),
// the next pass is due at the first cadence point above the count.
// Called from ingestion paths after the tenant's lock is released; TryLock
// keeps ingestion non-blocking when a pass is already running.
func (e *Engine) maybeRebalance() {
	if e.routing.policy != PlacementBalanced || e.batchesTotal.Load() < e.nextRebal.Load() {
		return
	}
	if !e.rebalMu.TryLock() {
		return
	}
	defer e.rebalMu.Unlock()
	due, count := e.nextRebal.Load(), e.batchesTotal.Load()
	if count < due {
		return // another pass got here first
	}
	every := int64(e.cfg.RebalanceEvery)
	e.rebalancePass(due + every*((count-due)/every+1))
}

// Rebalance forces a rebalance pass now, returning the number of
// tenants moved. The next pass is due RebalanceEvery batches after this
// one starts. A no-op (0, nil) on hash-placed engines.
func (e *Engine) Rebalance() (int, error) {
	if e.routing.policy != PlacementBalanced {
		return 0, nil
	}
	e.rebalMu.Lock()
	defer e.rebalMu.Unlock()
	//lint:ignore lockorder a pass journals its moves while rebalMu serializes it — append-before-apply needs the move frozen, and rebalMu is what freezes routing
	return e.rebalancePass(e.batchesTotal.Load() + int64(e.cfg.RebalanceEvery))
}

// rebalancePass sets the next pass due at batch count next, then
// measures, plans, moves, and audits. Batches applied while it runs
// count toward the next pass, so the number of passes does not depend
// on how long a pass takes. The measure step reads the load meters
// under rebalMu alone, so a pass that plans no move takes no tenant's
// lock, and one that does locks only each tenant it moves. Callers hold
// rebalMu.
func (e *Engine) rebalancePass(next int64) (int, error) {
	e.nextRebal.Store(next)
	// Measure: fold each tenant's events applied since the last pass
	// into its load accumulator. Events, not wall time — the cost unit
	// is deterministic (wall-time windows whiplash with scheduler noise
	// and GC pauses, and two engines fed the same streams then place
	// differently), and queue pressure follows event volume. Healthy
	// tenants only — a poisoned tenant's route is frozen until it heals.
	loads := e.routing.measure()

	budget := e.cfg.RebalanceD * len(e.shards)
	moves := e.routing.Plan(loads, budget)

	moved := 0
	var firstErr error
	for _, mv := range moves {
		ok, err := e.moveTenantLocal(mv.Tenant, mv.From, mv.To)
		if err != nil {
			firstErr = err
			break
		}
		if ok {
			moved++
		}
	}

	// Audit only passes that changed routing: a pass that moved nothing
	// left the tables as the last audit saw them.
	var viol []invariant.Violation
	if moved > 0 {
		viol = e.auditPlacement(moved)
	}
	e.rsMu.Lock()
	e.rebalStats.Passes++
	e.rebalStats.Planned += int64(len(moves))
	e.rebalStats.Moves += int64(moved)
	e.rebalStats.LastPassMoves = moved
	if len(viol) > 0 && len(e.rebalStats.Violations) < 64 {
		e.rebalStats.Violations = append(e.rebalStats.Violations, viol...)
	}
	e.rsMu.Unlock()
	e.cfg.Sink.RebalancePass(len(moves), moved, budget, len(viol))
	return moved, firstErr
}

// rebalDecay ages the per-tenant load accumulator each pass. When the
// fleet goes quiet every estimate shrinks by the same factor, so the
// load ratios Plan levels shards by hold still. Slow enough to be
// stable, low enough that a workload shift overtakes history within a
// few dozen passes.
const rebalDecay = 0.95

// auditPlacement checks the two placement invariants: the routing table
// agrees with every tenant's own stripe field, and the pass's move count
// respected the d·shards budget. Every write of either holds rebalMu,
// which the caller holds, so the two read here are one exact snapshot
// without taking any tenant's lock.
func (e *Engine) auditPlacement(moved int) []invariant.Violation {
	viol := invariant.CheckRouting(e.routing.snapshot(), e.members())
	return append(viol, invariant.CheckMoveBudget(moved, e.cfg.RebalanceD, len(e.shards))...)
}

// journalMove appends the TypeMove record that commits t's move to
// stripe to; replayed by Recover to reproduce the routing table. The
// record is encoded in the tenant's scratch buffer (see journalSubmit).
// Callers hold t.mu.
func (e *Engine) journalMove(t *tenant, to int) error {
	if e.cfg.Journal == nil {
		return nil
	}
	t.enc = wal.AppendMove(t.enc[:0], t.shardIdx, to)
	return e.journalAppend(wal.Record{Type: wal.TypeMove, Tenant: t.id, Data: t.enc})
}

// moveTenantLocal moves one tenant between stripes of this engine:
// journal the TypeMove (the commit point — a crash before it recovers
// the old route, after it the new one), then relocate the same tenant.
// A local move is a relocation, not a rebuild: the allocator, queue,
// ledger, Degrade ladder and breaker state stay on the tenant, so
// nothing can fail once the record is durable. It locks the moving
// tenant alone, which freezes it while the record lands.
//
// Skipped moves (tenant vanished, poisoned or not on from) return
// (false, nil). Callers hold rebalMu.
func (e *Engine) moveTenantLocal(id string, from, to int) (bool, error) {
	if from == to || from < 0 || to < 0 || from >= len(e.shards) || to >= len(e.shards) {
		return false, nil
	}
	t := e.lockTenant(id)
	if t == nil {
		return false, nil
	}
	defer t.mu.Unlock()
	if t.shardIdx != from || t.err != nil {
		return false, nil
	}
	if err := e.journalMove(t, to); err != nil {
		return false, err
	}
	e.relocate(t, to)
	e.shards[from].noteQueued(0)
	e.shards[to].noteQueued(0)
	e.cfg.Sink.RebalanceMove(id, from, to)
	return true, nil
}

// relocate re-homes t on stripe to, moving its share of the stripe
// ledgers along, and rewrites its route. It is the one move routine:
// live moves (moveTenantLocal) and recovered ones (redoMove) both run
// it, so the two cannot drift apart. Callers hold rebalMu and t.mu, or
// are Recover.
func (e *Engine) relocate(t *tenant, to int) {
	e.shards[t.shardIdx].credit(t, -1)
	t.shardIdx = to
	e.shards[to].credit(t, 1)
	e.routing.set(t.id, to, t)
}

// redoMove re-applies a journaled TypeMove during Recover through the
// same relocate a live move runs. The source is the tenant's replayed
// route, which matches the record's from-shard: each earlier record of
// the tenant was replayed or is covered by a snapshot carrying its
// route. Recovery is single-threaded, so the tenant's lock is
// uncontended formality.
func (e *Engine) redoMove(id string, pos wal.Pos, to int) error {
	if to < 0 || to >= len(e.shards) {
		return fmt.Errorf("engine: recover record %s: move %q to shard %d of %d", pos, id, to, len(e.shards))
	}
	t := e.lockTenant(id)
	if t == nil {
		return fmt.Errorf("engine: recover record %s: %w: %q", pos, ErrUnknownTenant, id)
	}
	defer t.mu.Unlock()
	e.relocate(t, to)
	return nil
}
