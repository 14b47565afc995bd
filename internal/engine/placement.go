// The placement layer: tenant→shard routing as a first-class, mutable
// concern. Every shard addressing decision in the engine flows through
// the routing table — this file owns the only code allowed to index
// e.shards or hash tenant IDs (enforced by the placer lint), and the
// only code that writes where a tenant lives.
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
// A tenant's route and its stripe membership are one fact kept in two
// tables, so they are written together: admit, relocate and evict write
// both under rebalMu and the stripe lock (see shard.tenants). Lookups
// find the tenant in its stripe's map under that stripe's lock
// (lockTenant), so a tenant can never be operated on through a stale
// stripe. Beside each route the table keeps the tenant's load meter,
// which the tenant's stripe-lock holder publishes its event count to,
// so a pass measures the fleet under rebalMu alone and takes stripe
// locks only for the moves it makes.
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

// routing is the engine's tenant→shard table: it holds exactly the
// registered tenants, and its policy decides where a new one goes. Its
// own mutex lets ingestion look routes up while a pass rewrites them.
// The table is recovered from the journal (snapshot Shard fields plus
// TypeMove records).
type routing struct {
	policy PlacementPolicy
	shards int
	mu     sync.RWMutex
	routes map[string]route
}

// route is one registered tenant's entry: its stripe, and the load
// meter admit registered with it, which a tenant keeps for its whole
// stay (a breaker heal carries it over).
type route struct {
	shard int
	meter *loadMeter
}

// loadMeter is a tenant's load as rebalance passes see it, read
// without the tenant's stripe lock.
type loadMeter struct {
	// events and poisoned mirror t.events and t.err != nil. They are
	// written only by the holder of the tenant's stripe lock (apply,
	// poison, a breaker heal and a snapshot restore) and read under
	// rebalMu alone (measure). events never runs backwards (publish), and
	// a heal clears poisoned only once it has succeeded.
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
// sees a window run backwards. The caller holds the tenant's stripe
// lock, which makes it the only writer, so a load then a store
// suffices.
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
func (r *routing) lookup(id string) (shard int, ok bool) {
	r.mu.RLock()
	rt, ok := r.routes[id]
	r.mu.RUnlock()
	return rt.shard, ok
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
	count := make([]int, r.shards)
	r.mu.RLock()
	for _, rt := range r.routes {
		count[rt.shard]++
	}
	r.mu.RUnlock()
	best := 0
	for s := 1; s < r.shards; s++ {
		if count[s] < count[best] {
			best = s
		}
	}
	return best
}

// set records id's route and load meter; drop forgets both. Only
// admit, relocate and evict call them, each with the matching
// membership write, so every write of the table holds rebalMu.
func (r *routing) set(id string, shard int, m *loadMeter) {
	r.mu.Lock()
	r.routes[id] = route{shard: shard, meter: m}
	r.mu.Unlock()
}

func (r *routing) drop(id string) {
	r.mu.Lock()
	delete(r.routes, id)
	r.mu.Unlock()
}

// measure folds each healthy tenant's published events into its load
// estimate (loadMeter.fold) and returns the estimates. It reads only
// the meters, so it takes no stripe lock. Callers hold rebalMu, which
// owns every meter's mark and estimate and freezes the table's
// membership.
func (r *routing) measure() map[string]float64 {
	r.mu.RLock()
	defer r.mu.RUnlock()
	loads := make(map[string]float64, len(r.routes))
	for id, rt := range r.routes {
		if est, ok := rt.meter.fold(); ok {
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

// newShards allocates the lock stripes; the only shard-slice
// construction site.
func newShards(n int) []*shard {
	shards := make([]*shard, n)
	for i := range shards {
		shards[i] = &shard{tenants: make(map[string]*tenant)}
	}
	return shards
}

// route returns the tenant's shard index, 0 for a tenant that is not
// registered. The answer is a point in time: a pass can move the tenant
// before the caller acts on it, so paths that operate on the tenant use
// lockTenant.
func (e *Engine) route(id string) int {
	idx, _ := e.routing.lookup(id)
	return idx
}

// shardAt returns the stripe at index idx; the only e.shards indexing
// site outside construction.
func (e *Engine) shardAt(idx int) *shard {
	return e.shards[idx]
}

// lockTenant locks the stripe holding id and returns it with the
// tenant, or (nil, nil) when id is not registered. Route and membership
// change together under the stripe lock, so a tenant found in the
// stripe's map under that lock lives there; a miss means a move got
// there first, and the lookup starts over.
func (e *Engine) lockTenant(id string) (*shard, *tenant) {
	for {
		idx, ok := e.routing.lookup(id)
		if !ok {
			return nil, nil
		}
		s := e.shardAt(idx)
		s.mu.Lock()
		if t, ok := s.tenants[id]; ok {
			//lint:ignore lockorder lockTenant transfers s.mu to the caller by contract; every caller unlocks it
			return s, t
		}
		s.mu.Unlock()
	}
}

// admit registers t on stripe t.shardIdx, the one way in: register
// (AddTenant and MoveTenant's arrival) and recovery (restoreSnapshot).
// The tenant stays invisible until its route is written, so none of its
// records can reach the journal before the snapshot register appends
// first, and nothing needs undoing when that append fails. Route and
// membership are written in one stripe critical section. Callers hold
// rebalMu, or are Recover.
func (e *Engine) admit(t *tenant) {
	s := e.shardAt(t.shardIdx)
	s.mu.Lock()
	s.tenants[t.id] = t
	e.routing.set(t.id, t.shardIdx, t.meter)
	s.mu.Unlock()
	// Pre-creates every per-tenant series so gauges (breaker state, queue
	// depth) are scrapeable as 0 before the first batch.
	e.cfg.Sink.TenantRegistered(t.id)
}

// evict unregisters id from stripe s and drops its compaction
// watermark: MoveTenant's removal. Callers hold rebalMu and s.mu.
func (e *Engine) evict(s *shard, id string) {
	delete(s.tenants, id)
	e.routing.drop(id)
	e.jmu.Lock()
	delete(e.snapSeg, id)
	e.jmu.Unlock()
}

// ShardStats is a point-in-time ledger for one lock stripe.
type ShardStats struct {
	// Shard is the stripe index.
	Shard int
	// Tenants is the number of tenants currently routed here.
	Tenants int
	// Queued is the current sum of resident tenants' queue depths.
	Queued int
	// PeakQueued is the highest backlog observed at an ingestion
	// boundary: Queued plus events in submissions still waiting for the
	// stripe lock. It is the hot-shard pressure measure the skew
	// benchmark reports — a stripe loaded beyond its drain rate shows
	// up here as submitters stacking behind it.
	PeakQueued int
	// Events counts events applied on this stripe (cumulative; a moved
	// tenant's future events count toward its new stripe).
	Events int64
	// ApplyNs is cumulative wall time spent applying on this stripe.
	ApplyNs int64
}

// ShardStats snapshots every stripe's ledger in index order.
func (e *Engine) ShardStats() []ShardStats {
	out := make([]ShardStats, len(e.shards))
	for i, s := range e.shards {
		s.mu.Lock()
		out[i] = ShardStats{
			Shard:      i,
			Tenants:    len(s.tenants),
			Queued:     s.queued(),
			PeakQueued: s.peakQueued,
			Events:     s.events,
			ApplyNs:    s.applyNs,
		}
		s.mu.Unlock()
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
// Called from ingestion paths after the shard lock is released; TryLock
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
// under rebalMu alone, so a pass that plans no move takes no stripe
// lock, and one that does locks only each move's two stripes. Callers
// hold rebalMu.
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
// is a bijection to shard membership, and the pass's move count
// respected the d·shards budget. Every route and membership write holds
// rebalMu, which the caller holds, so the two tables read here are one
// exact snapshot without taking any stripe lock (see shard.tenants).
func (e *Engine) auditPlacement(moved int) []invariant.Violation {
	members := make(map[string]int)
	for i, s := range e.shards {
		for id := range s.tenants {
			members[id] = i
		}
	}
	viol := invariant.CheckRouting(e.routing.snapshot(), members)
	return append(viol, invariant.CheckMoveBudget(moved, e.cfg.RebalanceD, len(e.shards))...)
}

// journalMove appends the TypeMove record that commits an intra-engine
// move; replayed by Recover to reproduce the routing table. The record
// is encoded in the source stripe's scratch buffer (see journalSubmit).
func (e *Engine) journalMove(id string, from, to int) error {
	if e.cfg.Journal == nil {
		return nil
	}
	s := e.shardAt(from)
	s.enc = wal.AppendMove(s.enc[:0], from, to)
	return e.journalAppend(wal.Record{Type: wal.TypeMove, Tenant: id, Data: s.enc})
}

// moveTenantLocal moves one tenant between stripes of this engine:
// journal the TypeMove (the commit point — a crash before it recovers
// the old route, after it the new one), then relocate the same tenant.
// A local move is a relocation, not a rebuild: the allocator, queue,
// ledger, Degrade ladder and breaker state stay on the tenant, so
// nothing can fail once the record is durable.
//
// Skipped moves (tenant vanished or poisoned) return (false, nil).
// Callers hold rebalMu.
func (e *Engine) moveTenantLocal(id string, from, to int) (bool, error) {
	if from == to || from < 0 || to < 0 || from >= len(e.shards) || to >= len(e.shards) {
		return false, nil
	}
	lo, hi := from, to
	if lo > hi {
		lo, hi = hi, lo
	}
	e.shards[lo].mu.Lock()
	defer e.shards[lo].mu.Unlock()
	e.shards[hi].mu.Lock()
	defer e.shards[hi].mu.Unlock()

	src, dst := e.shards[from], e.shards[to]
	t, ok := src.tenants[id]
	if !ok || t.err != nil {
		return false, nil
	}
	if _, dup := dst.tenants[id]; dup {
		return false, fmt.Errorf("engine: move %q: already on shard %d", id, to)
	}
	//lint:ignore lockorder append-before-apply: the move record is the commit point and must land while both shard locks freeze the tenant (see Submit)
	if err := e.journalMove(id, from, to); err != nil {
		return false, err
	}
	e.relocate(t, from, to)
	src.noteQueued(0)
	dst.noteQueued(0)
	e.cfg.Sink.RebalanceMove(id, from, to)
	return true, nil
}

// relocate re-homes t from stripe from to stripe to and rewrites its
// route. It is the one move routine: live moves (moveTenantLocal) and
// recovered ones (redoMove) both run it, so the two cannot drift apart.
// Callers hold rebalMu and both stripes' locks, or are Recover.
func (e *Engine) relocate(t *tenant, from, to int) {
	delete(e.shards[from].tenants, t.id)
	t.shardIdx = to
	e.shards[to].tenants[t.id] = t
	e.routing.set(t.id, to, t.meter)
}

// redoMove re-applies a journaled TypeMove during Recover through the
// same relocate a live move runs. The source is the tenant's replayed
// route, which matches the record's from-shard: each earlier record of
// the tenant was replayed or is covered by a snapshot carrying its
// route. Recovery is single-threaded, so the shard locks are
// uncontended formality.
func (e *Engine) redoMove(id string, pos wal.Pos, to int) error {
	if to < 0 || to >= len(e.shards) {
		return fmt.Errorf("engine: recover record %s: move %q to shard %d of %d", pos, id, to, len(e.shards))
	}
	from, ok := e.routing.lookup(id)
	if !ok {
		return fmt.Errorf("engine: recover record %s: %w: %q", pos, ErrUnknownTenant, id)
	}
	lo, hi := from, to
	if lo > hi {
		lo, hi = hi, lo
	}
	e.shards[lo].mu.Lock()
	defer e.shards[lo].mu.Unlock()
	if hi != lo {
		e.shards[hi].mu.Lock()
		defer e.shards[hi].mu.Unlock()
	}
	e.relocate(e.shards[from].tenants[id], from, to)
	return nil
}
