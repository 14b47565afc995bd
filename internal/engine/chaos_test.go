package engine

// The chaos soak: a seeded adversarial workout for the engine's
// robustness layers (docs/ENGINE.md). The allocator-stall injection
// needs its own Config.Rebuild: every tenant generation, breaker-rebuilt
// or recovered, must come back wrapped in a stallAllocator. It asserts
// the four guarantees the robustness stack makes:
//
//  1. audited invariants hold throughout: every tenant runs under
//     Config.Audit and must finish every round with zero violations;
//  2. crashes are transparent: at every kill/recover cycle, the engine
//     rebuilt from the journal matches the live one byte-for-byte under
//     CanonicalStats, poisoned tenants included;
//  3. stalls are bounded: an allocator that goes to sleep mid-apply
//     fails its Replay shard with the watchdog's TimeoutError instead
//     of hanging the driver;
//  4. poisoning is transient: every tenant poisoned by an injected pill
//     is healed by the circuit breaker before the soak ends — no tenant
//     is left permanently poisoned.
//
// The soak deliberately runs the Block overload policy, not Degrade: the
// degradation controller steers by wall-clock latency, so its placements
// are not a pure function of the journaled history, and guarantee (2)
// would not hold. Degrade has its own deterministic fake-clock coverage
// (TestDegradeClimbsAndRestores).

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"partalloc/internal/core"
	"partalloc/internal/fault"
	"partalloc/internal/parallel"
	"partalloc/internal/task"
	"partalloc/internal/topology"
	"partalloc/internal/tree"
	"partalloc/internal/wal"
)

// stallAllocator wraps an allocator with an armable one-shot sleep in
// Arrive. It embeds the interface (not a concrete type), so it never
// satisfies core.BatchApplier and the engine takes the per-event path —
// exactly the shape of a tenant whose placement work has gone pathological.
type stallAllocator struct {
	core.Allocator
	mu    sync.Mutex
	delay time.Duration
}

// Snapshot delegates to the wrapped allocator so a stalled tenant is
// still snapshottable (the embedded core.Allocator interface does not
// carry the checkpoint methods).
func (s *stallAllocator) Snapshot() []byte {
	return s.Allocator.(core.Checkpointable).Snapshot()
}

// Restore is Snapshot's inverse.
func (s *stallAllocator) Restore(data []byte) error {
	return s.Allocator.(core.Checkpointable).Restore(data)
}

// arm schedules one sleep: the next Arrive blocks for d, then disarms.
func (s *stallAllocator) arm(d time.Duration) {
	s.mu.Lock()
	s.delay = d
	s.mu.Unlock()
}

//lint:ignore purealloc the sleep IS the chaos injection: this wrapper exists to make an allocator stall so the watchdog can be proven to catch it; placement itself is delegated unchanged
func (s *stallAllocator) Arrive(tk task.Task) tree.Node {
	s.mu.Lock()
	d := s.delay
	s.delay = 0
	s.mu.Unlock()
	if d > 0 {
		time.Sleep(d)
	}
	return s.Allocator.Arrive(tk)
}

// chaosHarness owns the soak's mutable state: the current generation's
// stall wrapper, and the counters for the final summary.
type chaosHarness struct {
	seed int64
	// balanced runs every engine generation under balanced placement, so
	// rebalance moves land between poison pills, stalls, and crashes.
	balanced bool

	mu    sync.Mutex
	stall *stallAllocator

	poisons, heals, stalls, crashes int
	// rebalPasses/rebalMoves accumulate across engine generations: the
	// rebalance ledger is in-memory, so each crash cycle folds the dying
	// generation's counts in here before recovery zeroes them.
	rebalPasses, rebalMoves int64
}

func (h *chaosHarness) currentStall() *stallAllocator {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.stall
}

// rebuild is the harness's RebuildFunc: testRebuild, with the stall
// tenant re-wrapped so every generation — initial, breaker-rebuilt, or
// recovered — stays stallable. The wrapper delegates placement
// unchanged, so a rebuilt plain history and a live wrapped one produce
// identical ledgers.
func (h *chaosHarness) rebuild(spec TenantSpec) (core.Allocator, *fault.Schedule, *topology.Host, error) {
	a, sched, host, err := testRebuild(spec)
	if err != nil || spec.ID != chaosStallTenant {
		return a, sched, host, err
	}
	sa := &stallAllocator{Allocator: a}
	h.mu.Lock()
	h.stall = sa
	h.mu.Unlock()
	return sa, sched, host, nil
}

const (
	chaosFaultTenant = "faulty-periodic"
	chaosStallTenant = "stall-basic"
)

// chaosSpecs is the soak fleet: batched and per-event allocators, a
// reallocating tenant, a fault-schedule tenant, and the stall target.
// The first pillTenants entries are eligible for poison pills; the fault
// and stall tenants are kept pill-free so their streams apply in full.
func chaosSpecs(t *testing.T, seed int64) ([]TenantSpec, int) {
	var sched strings.Builder
	if err := fault.WriteText(&sched, fault.Random(fault.RandomConfig{
		N: 128, Events: 400, Failures: 3, Down: 80, MaxConcurrent: 2, Seed: seed,
	})); err != nil {
		t.Fatal(err)
	}
	specs := []TenantSpec{
		{ID: "steady-basic", Algorithm: "basic", N: 128},
		{ID: "greedy-perevent", Algorithm: "greedy", N: 128},
		{ID: "periodic-d2", Algorithm: "periodic", N: 128, D: 2, DSet: true},
		{ID: "lazy-d1", Algorithm: "lazy", N: 64, D: 1, DSet: true},
		{ID: chaosFaultTenant, Algorithm: "periodic", N: 128, D: 1, DSet: true, Faults: sched.String()},
		{ID: chaosStallTenant, Algorithm: "basic", N: 64},
	}
	return specs, 4
}

// chaosConfig is the per-generation engine config. Audit applies events
// one at a time (every placement checked); the tiny breaker backoff keeps
// heal latency in milliseconds so the soak stays fast.
func (h *chaosHarness) chaosConfig() Config {
	cfg := Config{
		Shards:         4,
		BatchSize:      16,
		Audit:          true,
		MaxQueue:       64,
		Overload:       Block,
		ReplayWatchdog: 25 * time.Millisecond,
		Rebuild:        h.rebuild,
		Breaker:        BreakerConfig{Base: 2 * time.Millisecond, Max: 20 * time.Millisecond, Seed: h.seed},
	}
	if h.balanced {
		// A tight cadence so the soak's short rounds still trigger
		// passes between injections, on top of the forced per-round one.
		cfg.Placement = PlacementBalanced
		cfg.RebalanceD = 1
		cfg.RebalanceEvery = 4
	}
	return cfg
}

// chaosChunk builds one round of traffic for one tenant: arrivals
// followed by their departures, with round-scoped task IDs. Poisoning
// drops a *suffix* of the submitted history, and a suffix cut of this
// shape can only orphan arrivals (a bounded load leak), never leave a
// departure pointing at a task that was dropped.
func chaosChunk(round, tenant, pairs int) []task.Event {
	base := task.ID(1 + round*1_000_000 + tenant*10_000)
	evs := make([]task.Event, 0, 2*pairs)
	for i := 0; i < pairs; i++ {
		evs = append(evs, task.Event{Kind: task.Arrive, Task: base + task.ID(i), Size: 1 << (i % 2)})
	}
	for i := 0; i < pairs; i++ {
		evs = append(evs, task.Event{Kind: task.Depart, Task: base + task.ID(i)})
	}
	return evs
}

// chaosPill is a poison event: a size-3 arrival panics inside the
// allocator with ErrNotPowerOfTwo, which the engine converts into
// poisoning. The ID space is disjoint from chaosChunk's.
func chaosPill(round, tenant int) task.Event {
	return task.Event{Kind: task.Arrive, Task: task.ID(1_000_000_000 + round*1_000 + tenant), Size: 3}
}

// TestChaosSoak runs the soak on three seeded inputs. With balanced
// placement the soak additionally forces a rebalance pass every round —
// moves land between poison pills, stalls, and crashes — and every
// kill/recover cycle gates on the recovered routing table matching the
// pre-crash one exactly. Two hash seeds, so the injection schedule
// (which tenants are poisoned, when stalls land relative to crashes) is
// not a single lucky draw.
func TestChaosSoak(t *testing.T) {
	for _, tc := range []struct {
		name     string
		seed     int64
		rounds   int
		balanced bool
	}{
		{"hash_seed1", 1, 8, false},
		{"hash_seed7", 7, 6, false},
		{"balanced_seed3", 3, 8, true},
	} {
		t.Run(tc.name, func(t *testing.T) { runChaos(t, tc.seed, tc.rounds, tc.balanced) })
	}
}

func runChaos(t *testing.T, seed int64, rounds int, balanced bool) {
	dir := t.TempDir()
	h := &chaosHarness{seed: seed, balanced: balanced}
	log, err := wal.Open(dir, wal.Options{Sync: wal.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	cfg := h.chaosConfig()
	cfg.Journal = log
	eng := New(cfg)

	specs, pillTenants := chaosSpecs(t, seed)
	for _, spec := range specs {
		a, sched, _, err := h.rebuild(spec)
		if err != nil {
			t.Fatal(err)
		}
		topts := []TenantOption{WithTenantSpec(spec)}
		if sched != nil {
			topts = append(topts, WithTenantFaults(sched))
		}
		if err := eng.AddTenant(spec.ID, a, topts...); err != nil {
			t.Fatal(err)
		}
	}

	rng := rand.New(rand.NewSource(seed))
	poisoned := make(map[string]bool, len(specs))

	for r := 0; r < rounds; r++ {
		// Decide this round's injections up front so the rng stream stays
		// deterministic regardless of goroutine interleaving below.
		pill := -1
		if rng.Intn(3) == 0 {
			pill = rng.Intn(pillTenants)
		}

		// Concurrent ingestion wave: one goroutine per tenant, so the
		// tenant locks, the journal lock and the stripe ledgers run under
		// real contention (and the race detector, via make test-chaos).
		errsCh := make(chan error, len(specs))
		var wg sync.WaitGroup
		for i, spec := range specs {
			evs := chaosChunk(r, i, 12)
			if i == pill {
				evs = append(evs, chaosPill(r, i))
			}
			wg.Add(1)
			go func(id string, evs []task.Event) {
				defer wg.Done()
				mid := len(evs) / 2
				for _, slice := range [][]task.Event{evs[:mid], evs[mid:]} {
					if err := eng.Submit(id, slice...); err != nil {
						if errors.Is(err, ErrTenantPoisoned) {
							return // expected: a pill, or a not-yet-healed breaker
						}
						errsCh <- fmt.Errorf("round %d, tenant %s: %w", r, id, err)
						return
					}
				}
				if err := eng.Flush(id); err != nil && !errors.Is(err, ErrTenantPoisoned) {
					errsCh <- fmt.Errorf("round %d, flush %s: %w", r, id, err)
				}
			}(spec.ID, evs)
		}
		wg.Wait()
		close(errsCh)
		for err := range errsCh {
			t.Fatal(err)
		}

		// Track poisoning transitions. A tenant can also self-heal during
		// the wave (its first submit past the breaker deadline probes),
		// so both edges are observed here rather than at injection time.
		for _, spec := range specs {
			now := eng.Err(spec.ID) != nil
			if now && !poisoned[spec.ID] {
				h.poisons++
			}
			if !now && poisoned[spec.ID] {
				h.heals++
			}
			poisoned[spec.ID] = now
		}

		// Stall injection: arm the current generation's wrapper and push
		// one arrival through Replay. The shard worker must be killed by
		// the watchdog, not waited for.
		if r%4 == 2 && !poisoned[chaosStallTenant] {
			const stallFor = 120 * time.Millisecond
			h.currentStall().arm(stallFor)
			ev := task.Event{Kind: task.Arrive, Task: task.ID(2_000_000_000 + r), Size: 1}
			err := eng.Replay(context.Background(), map[string][]task.Event{chaosStallTenant: {ev}})
			var te *parallel.TimeoutError
			if !errors.As(err, &te) {
				t.Fatalf("round %d: stalled replay did not hit the watchdog: %v", r, err)
			}
			// The abandoned worker finishes its single event after the
			// sleep; quiesce before anything reads or snapshots state.
			time.Sleep(stallFor + 80*time.Millisecond)
			if err := eng.Submit(chaosStallTenant, task.Event{Kind: task.Depart, Task: ev.Task}); err != nil {
				t.Fatalf("round %d: stall tenant unusable after watchdog: %v", r, err)
			}
			h.stalls++
		}

		// Force a rebalance between injections: moves must survive
		// poison pills (a poisoned tenant's route freezes, the rest keep
		// moving) and land in the journal before the next crash cycle.
		if balanced {
			if _, err := eng.Rebalance(); err != nil {
				t.Fatalf("round %d: rebalance: %v", r, err)
			}
		}

		// Kill/recover cycle: the recovered engine must match the live
		// one byte-for-byte under CanonicalStats, poisoned tenants and
		// queued backlogs included.
		if r%4 == 3 {
			eng = chaosCrashCycle(t, h, eng, dir)
			h.crashes++
		}

		chaosAuditClean(t, eng)
	}

	// Final heal pass: wait out the deepest possible backoff, then probe
	// every still-poisoned tenant. The breaker must close all of them.
	for _, spec := range specs {
		if eng.Err(spec.ID) == nil {
			continue
		}
		time.Sleep(40 * time.Millisecond) // > Breaker.Max plus jitter
		probe := task.Event{Kind: task.Arrive, Task: task.ID(3_000_000_000 + int64(len(spec.ID))), Size: 1}
		if err := eng.Submit(spec.ID, probe); err != nil {
			t.Fatalf("final heal of %s failed: %v", spec.ID, err)
		}
		h.heals++
		poisoned[spec.ID] = false
	}
	if err := eng.FlushAll(); err != nil {
		t.Fatalf("final FlushAll: %v", err)
	}
	for _, spec := range specs {
		if err := eng.Err(spec.ID); err != nil {
			t.Fatalf("tenant %s left permanently poisoned: %v", spec.ID, err)
		}
	}
	chaosAuditClean(t, eng)

	// One last crash for the road: the final state must recover too.
	eng = chaosCrashCycle(t, h, eng, dir)
	h.crashes++
	defer eng.Journal().Close()

	var applied int64
	for _, st := range eng.Stats() {
		if st.Events == 0 {
			t.Fatalf("tenant %s applied no events", st.Tenant)
		}
		applied += st.Events
	}
	placed := ""
	if balanced {
		rs := eng.RebalanceStats()
		placed = fmt.Sprintf(", %d rebalance passes / %d tenant moves",
			h.rebalPasses+rs.Passes, h.rebalMoves+rs.Moves)
	}
	t.Logf("%d rounds, %d tenants, %d events applied; %d poisonings / %d heals, %d stalls, %d crash recoveries%s, 0 invariant violations",
		rounds, len(specs), applied, h.poisons, h.heals, h.stalls, h.crashes, placed)
}

// chaosCrashCycle closes the journal under the engine (a SIGKILL with
// page-cache durability), recovers a fresh engine from the directory,
// and demands ledger byte-identity before handing the new generation back.
func chaosCrashCycle(t *testing.T, h *chaosHarness, eng *Engine, dir string) *Engine {
	t.Helper()
	want := eng.Stats()
	wantRoutes := eng.Routes()
	rs := eng.RebalanceStats()
	h.rebalPasses += rs.Passes
	h.rebalMoves += rs.Moves
	if err := eng.Journal().Close(); err != nil {
		t.Fatal(err)
	}
	rec, err := Recover(h.chaosConfig(), dir, wal.Options{Sync: wal.SyncNever})
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	// Routing-table consistency gate: recovery replays TypeMove records,
	// so the recovered table must equal the pre-crash one exactly — a
	// tenant routed elsewhere after recovery would be locked (and
	// journaled) on the wrong stripe from then on.
	gotRoutes := rec.Routes()
	if len(gotRoutes) != len(wantRoutes) {
		t.Fatalf("recovered %d routes, want %d", len(gotRoutes), len(wantRoutes))
	}
	for id, shard := range wantRoutes {
		if gotRoutes[id] != shard {
			t.Fatalf("tenant %s recovered onto shard %d, was on %d", id, gotRoutes[id], shard)
		}
	}
	got := rec.Stats()
	if len(got) != len(want) {
		t.Fatalf("recovered %d tenants, want %d", len(got), len(want))
	}
	for i := range want {
		w, g := CanonicalStats(want[i]), CanonicalStats(got[i])
		if !bytes.Equal(w, g) {
			t.Fatalf("tenant %s: recovered ledger diverges\n  live: %s\n  rec:  %s", want[i].Tenant, w, g)
		}
	}
	return rec
}

// chaosAuditClean fails on any invariant checker finding, including the
// rebalance audit's routing-bijection and move-budget checks.
func chaosAuditClean(t *testing.T, eng *Engine) {
	t.Helper()
	for _, st := range eng.Stats() {
		if len(st.Violations) > 0 {
			t.Fatalf("tenant %s: %d invariant violations, first: %s",
				st.Tenant, len(st.Violations), st.Violations[0])
		}
	}
	if rs := eng.RebalanceStats(); len(rs.Violations) > 0 {
		t.Fatalf("rebalance audit: %d violations, first: %s",
			len(rs.Violations), rs.Violations[0])
	}
}
