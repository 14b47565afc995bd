// The placement layer: tenant→shard routing as a first-class, mutable
// concern. Every shard addressing decision in the engine flows through
// a Placer's routing table — this file owns the only code allowed to
// index e.shards or hash tenant IDs (enforced by the placer lint).
//
// Two placers ship:
//
//   - HashPlacer: the historical behavior — fnv-32a(id) mod shards —
//     behind the routing table. Routes never change, so the engine is
//     byte-identical to the pre-placement-layer code (gated by
//     TestHashPlacementGolden).
//   - BalancedPlacer: a load-levelling greedy over the routing table.
//     A new tenant goes to the shard with the fewest routed tenants.
//     Every Config.RebalanceEvery applied batches, the engine seats
//     each tenant, heaviest first, on the least-loaded shard by its
//     decayed event count and moves at most d·shards tenants
//     (moveTenantLocal), journaling each move as a wal.TypeMove record
//     so Recover replays routing exactly.
//
// Routing changes and shard membership are kept consistent by lock
// discipline: moves hold the rebalance mutex plus both shard locks, and
// lookups re-verify the route after acquiring the shard lock
// (lockTenantShard), so a tenant can never be operated on through a
// stale stripe.
package engine

import (
	"fmt"
	"hash/fnv"
	"sort"
	"sync"

	"partalloc/internal/invariant"
	"partalloc/internal/wal"
)

// PlacementPolicy selects the engine's tenant→shard placer.
type PlacementPolicy int

const (
	// PlacementHash routes tenants by fnv-32a hash (the default and the
	// historical behavior).
	PlacementHash PlacementPolicy = iota
	// PlacementBalanced routes tenants through a mutable table that
	// rebalance passes level by measured load (see BalancedPlacer).
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

// Placer is the engine's tenant→shard routing table. Implementations
// must be safe for concurrent use: ingestion looks routes up while a
// rebalance pass rewrites them.
type Placer interface {
	// Place assigns a shard to a tenant and records the route. Placing
	// an already-routed tenant returns its existing route unchanged.
	Place(id string) int
	// Lookup returns the tenant's current route. For an unrouted tenant
	// it reports ok=false along with the deterministic hash default, so
	// callers always have a shard to address.
	Lookup(id string) (shard int, ok bool)
	// Remove forgets the tenant's route (tenant moved away or removed).
	Remove(id string)
	// Reroute overwrites the tenant's route: intra-engine moves and
	// recovery's TypeMove replay.
	Reroute(id string, shard int)
	// Routes snapshots the routing table (tenant → shard index).
	Routes() map[string]int
}

// hashShard is the deterministic default route: fnv-32a(id) mod shards.
// It is the single tenant-hashing site in the engine (placer lint).
func hashShard(id string, shards int) int {
	h := fnv.New32a()
	h.Write([]byte(id))
	return int(h.Sum32()) % shards
}

// routeTable is the mutable routing table both placers share.
type routeTable struct {
	mu     sync.RWMutex
	routes map[string]int
	shards int
}

func (rt *routeTable) Lookup(id string) (int, bool) {
	rt.mu.RLock()
	idx, ok := rt.routes[id]
	rt.mu.RUnlock()
	if !ok {
		return hashShard(id, rt.shards), false
	}
	return idx, true
}

func (rt *routeTable) Remove(id string) {
	rt.mu.Lock()
	delete(rt.routes, id)
	rt.mu.Unlock()
}

func (rt *routeTable) Reroute(id string, shard int) {
	rt.mu.Lock()
	rt.routes[id] = shard
	rt.mu.Unlock()
}

func (rt *routeTable) Routes() map[string]int {
	rt.mu.RLock()
	out := make(map[string]int, len(rt.routes))
	for id, idx := range rt.routes {
		out[id] = idx
	}
	rt.mu.RUnlock()
	return out
}

// HashPlacer routes every tenant to its hash default. The routing table
// exists only so membership audits and recovery have one source of
// truth; a route, once placed, never changes on its own.
type HashPlacer struct {
	routeTable
}

// NewHashPlacer returns the default placer for an engine with the given
// shard count.
func NewHashPlacer(shards int) *HashPlacer {
	p := &HashPlacer{}
	p.routes = make(map[string]int)
	p.shards = shards
	return p
}

// Place implements Placer: the hash default, recorded.
func (p *HashPlacer) Place(id string) int {
	if idx, ok := p.Lookup(id); ok {
		return idx
	}
	idx := hashShard(id, p.shards)
	p.Reroute(id, idx)
	return idx
}

// BalancedPlacer levels measured load across the shards. Place sends a
// new tenant to the shard with the fewest routed tenants; Plan seats
// every measured tenant, heaviest first, on the least-loaded shard, and
// a rebalance pass performs at most d·shards of the moves it implies.
// A tenant runs on exactly one shard, so its load alone decides its
// seat. The routing table is the placer's only state, and it is
// recovered from the journal (hash defaults plus TypeMove records plus
// snapshot Shard fields).
type BalancedPlacer struct {
	routeTable
}

// NewBalancedPlacer returns a load-levelling placer over shards stripes.
func NewBalancedPlacer(shards int) *BalancedPlacer {
	p := &BalancedPlacer{}
	p.routes = make(map[string]int)
	p.shards = shards
	return p
}

// Place implements Placer: a new tenant goes to the shard with the
// fewest routed tenants, lowest index first, so a fleet registered
// before its first pass starts spread evenly, and a removed tenant's
// shard is refilled first. The caller (addTenant) journals the
// divergence from the hash default as a TypeMove record so recovery
// reproduces the route.
func (p *BalancedPlacer) Place(id string) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	if idx, ok := p.routes[id]; ok {
		return idx
	}
	count := make([]int, p.shards)
	for _, idx := range p.routes {
		count[idx]++
	}
	best := 0
	for s := 1; s < p.shards; s++ {
		if count[s] < count[best] {
			best = s
		}
	}
	p.routes[id] = best
	return best
}

// Move is one planned intra-engine tenant move.
type Move struct {
	Tenant   string
	From, To int
}

// Plan seats every tenant in loads, heaviest first, on the least-loaded
// shard (lowest index on ties) and returns the moves that seating
// implies, at most budget of them, heaviest first: moving a heavy
// tenant repairs the most imbalance per move. A routed tenant stays
// put unless its shard's running load exceeds the least-loaded shard's
// by more than the tenant's own load: a move that cheap is within
// estimate noise, and holding still keeps converged plans empty instead
// of shuffling near-equal tenants between near-equal shards every pass.
// Tenants in the table but absent from loads (mid-move, poisoned at
// scan time) keep their routes and weigh nothing.
func (p *BalancedPlacer) Plan(loads map[string]float64, budget int) []Move {
	if budget <= 0 {
		return nil
	}
	type seat struct {
		id     string
		load   float64
		have   int
		routed bool
	}
	seats := make([]seat, 0, len(loads))
	for id, load := range loads {
		have, routed := p.Lookup(id)
		seats = append(seats, seat{id: id, load: load, have: have, routed: routed})
	}
	sort.Slice(seats, func(i, j int) bool {
		if seats[i].load != seats[j].load {
			return seats[i].load > seats[j].load
		}
		return seats[i].id < seats[j].id
	})
	running := make([]float64, p.shards)
	var moves []Move
	for _, st := range seats {
		best := 0
		for s := 1; s < p.shards; s++ {
			if running[s] < running[best] {
				best = s
			}
		}
		if st.routed && running[st.have] <= running[best]+st.load {
			best = st.have
		}
		running[best] += st.load
		if st.routed && best != st.have {
			moves = append(moves, Move{Tenant: st.id, From: st.have, To: best})
		}
	}
	if len(moves) > budget {
		moves = moves[:budget]
	}
	return moves
}

// newPlacer builds the configured placer; called by New.
func newPlacer(cfg Config) Placer {
	if cfg.Placement == PlacementBalanced {
		return NewBalancedPlacer(cfg.Shards)
	}
	return NewHashPlacer(cfg.Shards)
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

// route resolves a tenant to its shard index through the placer.
func (e *Engine) route(id string) int {
	idx, _ := e.placer.Lookup(id)
	return idx
}

// shardAt returns the stripe at index idx; the only e.shards indexing
// site outside construction.
func (e *Engine) shardAt(idx int) *shard {
	return e.shards[idx]
}

// shardFor resolves a tenant ID to its stripe. The returned shard is a
// point-in-time answer: a concurrent rebalance can reroute the tenant
// before the caller locks it. Paths that operate on the tenant must use
// lockTenantShard instead; shardFor remains for single-threaded paths
// (recovery) and callers that only need a default stripe.
func (e *Engine) shardFor(id string) *shard {
	return e.shardAt(e.route(id))
}

// lockTenantShard locks the shard currently routing id, re-verifying
// the route after acquisition: moveTenantLocal rewrites the route while
// holding both shard locks, so a route that still matches under the
// lock cannot be mid-move.
func (e *Engine) lockTenantShard(id string) *shard {
	for {
		idx := e.route(id)
		s := e.shardAt(idx)
		s.mu.Lock()
		if e.route(id) == idx {
			//lint:ignore lockorder lockTenantShard transfers s.mu to the caller by contract; every caller unlocks it
			return s
		}
		s.mu.Unlock()
	}
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
func (e *Engine) Routes() map[string]int { return e.placer.Routes() }

// RebalanceStats is the cumulative ledger of the balanced placer's
// rebalance passes.
type RebalanceStats struct {
	// Passes counts completed rebalance passes.
	Passes int64
	// Planned counts moves the placer proposed (within budget).
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
// counter has crossed the RebalanceEvery cadence. Called from ingestion
// paths after the shard lock is released; TryLock keeps ingestion
// non-blocking when a pass is already running.
func (e *Engine) maybeRebalance() {
	bp, ok := e.placer.(*BalancedPlacer)
	if !ok {
		return
	}
	if e.batchesTotal.Load() < e.nextRebal.Load() {
		return
	}
	if !e.rebalMu.TryLock() {
		return
	}
	defer e.rebalMu.Unlock()
	if e.batchesTotal.Load() < e.nextRebal.Load() {
		return // another pass got here first
	}
	e.rebalancePass(bp)
	e.nextRebal.Store(e.batchesTotal.Load() + int64(e.cfg.RebalanceEvery))
}

// Rebalance forces a rebalance pass now, returning the number of
// tenants moved. A no-op (0, nil) on hash-placed engines.
func (e *Engine) Rebalance() (int, error) {
	bp, ok := e.placer.(*BalancedPlacer)
	if !ok {
		return 0, nil
	}
	e.rebalMu.Lock()
	defer e.rebalMu.Unlock()
	//lint:ignore lockorder a pass journals its moves while rebalMu serializes it — append-before-apply needs the move frozen, and rebalMu is what freezes routing
	moved, err := e.rebalancePass(bp)
	e.nextRebal.Store(e.batchesTotal.Load() + int64(e.cfg.RebalanceEvery))
	return moved, err
}

// rebalancePass measures, plans, moves, and audits. Callers hold
// rebalMu.
func (e *Engine) rebalancePass(bp *BalancedPlacer) (int, error) {
	// Measure: fold each tenant's events applied since the last pass
	// into its load accumulator. Events, not wall time — the cost unit
	// is deterministic (wall-time windows whiplash with scheduler noise
	// and GC pauses, and two engines fed the same streams then place
	// differently), and queue pressure follows event volume. Healthy
	// tenants only — a poisoned tenant's route is frozen until it heals.
	loads := make(map[string]float64)
	for _, s := range e.shards {
		s.mu.Lock()
		for id, t := range s.tenants {
			if t.err != nil {
				continue
			}
			window := float64(t.events - t.rebalMark)
			t.rebalMark = t.events
			t.rebalEst = rebalDecay*t.rebalEst + window
			loads[id] = t.rebalEst
		}
		s.mu.Unlock()
	}

	budget := e.cfg.RebalanceD * len(e.shards)
	moves := bp.Plan(loads, budget)

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

	// Audit only passes that changed routing: the sweep takes every shard
	// lock at once, and paying that pause on no-op steady-state passes
	// would stall ingestion to re-verify a table nothing touched.
	var viol []invariant.Violation
	if moved > 0 {
		viol = e.auditPlacement(moved, budget)
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
// load ratios Plan seats tenants by hold still. Slow enough to be
// stable, low enough that a workload shift overtakes history within a
// few dozen passes.
const rebalDecay = 0.95

// auditPlacement checks the two placement invariants under all shard
// locks (acquired in index order): the routing table is a bijection to
// shard membership, and the pass's move count respected the d·shards
// budget. Membership writers (addTenant, MoveTenant, installSnapshot)
// hold rebalMu, which the caller holds, so the snapshot is exact.
func (e *Engine) auditPlacement(moved, budget int) []invariant.Violation {
	for _, s := range e.shards {
		s.mu.Lock()
	}
	members := make(map[string]int)
	for i, s := range e.shards {
		for id := range s.tenants {
			members[id] = i
		}
	}
	routes := e.placer.Routes()
	for i := len(e.shards) - 1; i >= 0; i-- {
		e.shards[i].mu.Unlock()
	}
	viol := invariant.CheckRouting(routes, members)
	viol = append(viol, invariant.CheckMoveBudget(moved, e.cfg.RebalanceD, len(e.shards))...)
	//lint:ignore lockorder every shard lock taken by the loop above is released by the reverse loop; the analyzer cannot pair loop-acquired locks
	return viol
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
	src.noteQueued()
	dst.noteQueued()
	e.cfg.Sink.RebalanceMove(id, from, to)
	return true, nil
}

// relocate re-homes t from stripe from to stripe to and rewrites its
// route. It is the one move routine: live moves (moveTenantLocal) and
// recovered ones (redoMove) both run it, so the two cannot drift apart.
// Callers hold both stripes' locks.
func (e *Engine) relocate(t *tenant, from, to int) {
	delete(e.shards[from].tenants, t.id)
	t.shardIdx = to
	e.shards[to].tenants[t.id] = t
	e.placer.Reroute(t.id, to)
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
	from := e.route(id)
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
	t, ok := e.shards[from].tenants[id]
	if !ok {
		return fmt.Errorf("engine: recover record %s: %w: %q", pos, ErrUnknownTenant, id)
	}
	e.relocate(t, from, to)
	return nil
}
