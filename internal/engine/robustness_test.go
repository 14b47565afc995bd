package engine

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"partalloc/internal/core"
	"partalloc/internal/errs"
	"partalloc/internal/fault"
	"partalloc/internal/task"
	"partalloc/internal/topology"
	"partalloc/internal/tree"
	"partalloc/internal/wal"
)

// testRebuild is the RebuildFunc the engine tests install: it understands
// the spec fields the partalloc facade fills, minus topology (engine
// tests run on plain tree machines).
func testRebuild(spec TenantSpec) (core.Allocator, *fault.Schedule, *topology.Host, error) {
	m := tree.MustNew(spec.N)
	var a core.Allocator
	switch spec.Algorithm {
	case "basic":
		a = core.NewBasic(m)
	case "greedy":
		a = core.NewGreedy(m)
	case "periodic":
		a = core.NewPeriodic(m, spec.D, core.DecreasingSize)
	case "constant":
		a = core.NewConstant(m)
	case "lazy":
		a = core.NewLazy(m, spec.D, core.DecreasingSize)
	case "random":
		a = core.NewRandom(m, spec.Seed)
	default:
		return nil, nil, nil, fmt.Errorf("test rebuild: unknown algorithm %q", spec.Algorithm)
	}
	var sched *fault.Schedule
	if spec.Faults != "" {
		s, err := fault.ParseText(strings.NewReader(spec.Faults), spec.N)
		if err != nil {
			return nil, nil, nil, fmt.Errorf("test rebuild: faults: %w", err)
		}
		sched = &s
	}
	return a, sched, nil, nil
}

// addSpecTenant registers a tenant built by testRebuild from spec, so the
// live allocator and the rebuild recipe cannot diverge.
func addSpecTenant(t testing.TB, e *Engine, spec TenantSpec) {
	t.Helper()
	a, sched, _, err := testRebuild(spec)
	if err != nil {
		t.Fatal(err)
	}
	topts := []TenantOption{WithTenantSpec(spec)}
	if sched != nil {
		topts = append(topts, WithTenantFaults(sched))
	}
	if err := e.AddTenant(spec.ID, a, topts...); err != nil {
		t.Fatal(err)
	}
}

// fakeClock is a deterministic e.now hook: every reading advances the
// clock by step, so an apply's measured latency equals step exactly.
type fakeClock struct {
	mu   sync.Mutex
	now  int64
	step int64
}

func (c *fakeClock) tick() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now += c.step
	return c.now
}

func (c *fakeClock) setStep(step int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.step = step
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now += int64(d)
}

func arrivals(from, n, size int) []task.Event {
	evs := make([]task.Event, n)
	for i := range evs {
		evs[i] = task.Event{Kind: task.Arrive, Task: task.ID(from + i), Size: size}
	}
	return evs
}

// TestBlockPolicyBoundsQueue submits far more events than MaxQueue in one
// call: Block must admit them in bound-sized chunks — the audit checker's
// queue-bound invariant sees every admission — and end in exactly the
// state an unbounded engine reaches.
func TestBlockPolicyBoundsQueue(t *testing.T) {
	bounded := New(Config{Shards: 1, BatchSize: 256, MaxQueue: 8, Overload: Block, Audit: true})
	free := New(Config{Shards: 1, BatchSize: 256, Audit: true})
	ba := core.NewBasic(tree.MustNew(16))
	fa := core.NewBasic(tree.MustNew(16))
	if err := bounded.AddTenant("t", ba); err != nil {
		t.Fatal(err)
	}
	if err := free.AddTenant("t", fa); err != nil {
		t.Fatal(err)
	}

	stream := testStream(16, 150, 3)
	if err := bounded.Submit("t", stream...); err != nil {
		t.Fatalf("Block Submit: %v", err)
	}
	if err := free.Submit("t", stream...); err != nil {
		t.Fatal(err)
	}

	st, _ := bounded.TenantStats("t")
	// With MaxQueue below BatchSize the batch trigger shrinks to the
	// bound, so the queue drains to the remainder mod 8.
	if want := len(stream) % 8; st.Queued != want {
		t.Errorf("Queued = %d, want %d (stream %d mod bound 8)", st.Queued, want, len(stream))
	}
	if st.Events != int64(len(stream)-st.Queued) {
		t.Errorf("Events = %d with %d queued of %d", st.Events, st.Queued, len(stream))
	}
	if st.ShedEvents != 0 {
		t.Errorf("Block shed %d events", st.ShedEvents)
	}
	if len(st.Violations) != 0 {
		t.Errorf("audit: %v", st.Violations[0])
	}

	if err := bounded.Flush("t"); err != nil {
		t.Fatal(err)
	}
	if err := free.Flush("t"); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ba.PELoads(), fa.PELoads()) {
		t.Error("bounded and unbounded engines disagree on final PE loads")
	}
	st, _ = bounded.TenantStats("t")
	if st.Queued != 0 || st.Events != int64(len(stream)) {
		t.Errorf("after Flush: Events=%d Queued=%d, want %d/0", st.Events, st.Queued, len(stream))
	}
}

// TestShedPolicyRejectsWhole checks Shed's all-or-nothing contract: an
// over-bound submission is rejected with ErrOverloaded (both sentinel
// spellings), nothing of it is queued or applied, and fitting
// submissions keep flowing afterwards.
func TestShedPolicyRejectsWhole(t *testing.T) {
	eng := New(Config{Shards: 1, BatchSize: 4, MaxQueue: 8, Overload: Shed, Audit: true})
	if err := eng.AddTenant("t", core.NewBasic(tree.MustNew(16))); err != nil {
		t.Fatal(err)
	}

	err := eng.Submit("t", arrivals(1, 10, 1)...)
	if !errors.Is(err, ErrOverloaded) || !errors.Is(err, errs.ErrOverloaded) {
		t.Fatalf("oversized submission: %v", err)
	}
	st, _ := eng.TenantStats("t")
	if st.ShedEvents != 10 || st.Queued != 0 || st.Events != 0 {
		t.Fatalf("after shed: ShedEvents=%d Queued=%d Events=%d, want 10/0/0", st.ShedEvents, st.Queued, st.Events)
	}

	// 3 fit (below the batch trigger of 4, so they stay queued).
	if err := eng.Submit("t", arrivals(100, 3, 1)...); err != nil {
		t.Fatal(err)
	}
	// 3 queued + 6 would exceed the bound of 8: shed as a whole.
	if err := eng.Submit("t", arrivals(200, 6, 1)...); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("queued+submitted over bound: %v", err)
	}
	// 3 queued + 5 = 8 fits exactly; two full batches of 4 apply.
	if err := eng.Submit("t", arrivals(300, 5, 1)...); err != nil {
		t.Fatal(err)
	}
	st, _ = eng.TenantStats("t")
	if st.Events != 8 || st.Queued != 0 || st.ShedEvents != 16 {
		t.Errorf("Events=%d Queued=%d ShedEvents=%d, want 8/0/16", st.Events, st.Queued, st.ShedEvents)
	}
	if len(st.Violations) != 0 {
		t.Errorf("audit: %v", st.Violations[0])
	}
}

// TestDegradeClimbsAndRestores drives the Degrade controller with a fake
// clock: over-budget batches climb the ladder (lazy trigger first, then
// doubled d), healthy batches walk it back down to the configured rung.
// The audit checker's degrade-ledger invariant validates every
// transition's chaining as it happens. The "moved" input relocates the
// tenant to the other stripe at the top of the climb: a move must carry
// the ladder along with the allocator, or the tenant forgets its rung
// while its allocator keeps the degraded d and never steps back down.
func TestDegradeClimbsAndRestores(t *testing.T) {
	for _, move := range []bool{false, true} {
		t.Run(fmt.Sprintf("moved=%v", move), func(t *testing.T) { degradeClimbAndRestore(t, move) })
	}
}

func degradeClimbAndRestore(t *testing.T, move bool) {
	cfg := Config{Shards: 1, BatchSize: 8, Overload: Degrade, DegradeBudget: time.Millisecond, Audit: true}
	if move {
		cfg.Shards, cfg.Placement, cfg.RebalanceEvery, cfg.Rebuild = 2, PlacementBalanced, 1<<30, testRebuild
	}
	eng := New(cfg)
	clk := &fakeClock{step: int64(2 * time.Millisecond)}
	eng.now = clk.tick
	p := core.NewPeriodic(tree.MustNew(64), 1, core.DecreasingSize)
	spec := TenantSpec{ID: "t", Algorithm: "periodic", N: 64, D: 1}
	if err := eng.AddTenant("t", p, WithTenantSpec(spec)); err != nil {
		t.Fatal(err)
	}

	// Two 2ms batches against a 1ms budget: the EWMA seeds at 2ms and
	// stays there, climbing one rung per batch.
	next := 1
	batch := func() {
		t.Helper()
		if err := eng.Submit("t", arrivals(next, 8, 1)...); err != nil {
			t.Fatal(err)
		}
		next += 8
	}
	batch()
	st, _ := eng.TenantStats("t")
	if st.DegradeLevel != 1 || st.EffectiveD != 1 || !p.LazyRealloc() {
		t.Fatalf("after 1 slow batch: level=%d d=%d lazy=%v, want rung 1 (lazy trigger)", st.DegradeLevel, st.EffectiveD, p.LazyRealloc())
	}
	batch()
	st, _ = eng.TenantStats("t")
	if st.DegradeLevel != 2 || st.EffectiveD != 2 {
		t.Fatalf("after 2 slow batches: level=%d d=%d, want rung 2 (d doubled)", st.DegradeLevel, st.EffectiveD)
	}
	if len(st.Degrades) != 2 {
		t.Fatalf("Degrades = %d transitions, want 2", len(st.Degrades))
	}
	if tr := st.Degrades[0]; tr.FromD != 1 || tr.ToD != 1 || tr.FromLazy || !tr.ToLazy || tr.Cause == "" {
		t.Errorf("first transition %+v is not eager→lazy with a cause", tr)
	}

	if move {
		moveToOtherStripe(t, eng, "t")
		got, _ := eng.TenantStats("t")
		if got.DegradeLevel != st.DegradeLevel || got.EffectiveD != st.EffectiveD || !reflect.DeepEqual(got.Degrades, st.Degrades) {
			t.Fatalf("move reset the ladder: level %d→%d, d %d→%d, transitions %d→%d",
				st.DegradeLevel, got.DegradeLevel, st.EffectiveD, got.EffectiveD, len(st.Degrades), len(got.Degrades))
		}
	}

	// Instant batches: the EWMA decays by 3/4 per batch; once under half
	// the budget for three straight batches, the controller steps down a
	// rung, eventually restoring the configured allocator.
	clk.setStep(0)
	for i := 0; i < 40; i++ {
		batch()
	}
	st, _ = eng.TenantStats("t")
	if st.DegradeLevel != 0 || st.EffectiveD != 1 || p.LazyRealloc() {
		t.Errorf("after healthy batches: level=%d d=%d lazy=%v, want configured rung restored", st.DegradeLevel, st.EffectiveD, p.LazyRealloc())
	}
	if len(st.Degrades) < 4 {
		t.Errorf("Degrades = %d transitions, want the climb and the walk back", len(st.Degrades))
	}
	if len(st.Violations) != 0 {
		t.Errorf("degrade-ledger audit: %v", st.Violations[0])
	}
}

// TestDegradePolicyInertOnNonDegradable checks that Degrade quietly
// behaves like Block for allocators without the knob (A_G here): no
// ladder, no transitions, EffectiveD stays the -1 sentinel.
func TestDegradePolicyInertOnNonDegradable(t *testing.T) {
	eng := New(Config{Shards: 1, BatchSize: 4, MaxQueue: 8, Overload: Degrade, DegradeBudget: time.Nanosecond})
	if err := eng.AddTenant("t", core.NewGreedy(tree.MustNew(16))); err != nil {
		t.Fatal(err)
	}
	if err := eng.Submit("t", arrivals(1, 20, 1)...); err != nil {
		t.Fatal(err)
	}
	st, _ := eng.TenantStats("t")
	if st.EffectiveD != -1 || st.DegradeLevel != 0 || len(st.Degrades) != 0 {
		t.Errorf("non-degradable tenant degraded: %+v", st)
	}
	if st.Events != 20 {
		t.Errorf("Events = %d, want 20 (Degrade admits like Block)", st.Events)
	}
}

// TestBreakerRebuildsFromJournal walks the circuit breaker's whole state
// machine: poisoning opens it, in-backoff operations fail fast, a failed
// half-open probe re-opens it with a doubled backoff, and a successful
// probe rebuilds the tenant from the journaled safe prefix — dropping
// exactly the poisonous suffix — so no tenant is poisoned forever.
func TestBreakerRebuildsFromJournal(t *testing.T) {
	dir := t.TempDir()
	log, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()

	var failProbe bool
	rebuild := func(spec TenantSpec) (core.Allocator, *fault.Schedule, *topology.Host, error) {
		if failProbe {
			return nil, nil, nil, errors.New("rebuild recipe unavailable")
		}
		return testRebuild(spec)
	}
	eng := New(Config{Shards: 1, BatchSize: 4, Journal: log, Rebuild: rebuild})
	clk := &fakeClock{step: 1}
	eng.now = clk.tick

	// A journaled engine must refuse tenants without a rebuild recipe.
	if err := eng.AddTenant("nospec", core.NewBasic(tree.MustNew(4))); err == nil {
		t.Fatal("journaled engine accepted a spec-less tenant")
	}
	addSpecTenant(t, eng, TenantSpec{ID: "t", Algorithm: "greedy", N: 8})

	if err := eng.Submit("t", arrivals(1, 4, 1)...); err != nil {
		t.Fatal(err)
	}
	// A duplicate task ID mid-batch panics the allocator: the whole
	// 4-event submission is the poisonous suffix.
	poison := []task.Event{
		{Kind: task.Arrive, Task: 5, Size: 1},
		{Kind: task.Arrive, Task: 5, Size: 1},
		{Kind: task.Arrive, Task: 6, Size: 1},
		{Kind: task.Arrive, Task: 7, Size: 1},
	}
	if err := eng.Submit("t", poison...); !errors.Is(err, ErrTenantPoisoned) || !errors.Is(err, errs.ErrDuplicateTask) {
		t.Fatalf("poisonous submit: %v", err)
	}
	st, _ := eng.TenantStats("t")
	if st.BreakerState != "open" || st.BreakerTrips != 1 || st.Events != 4 {
		t.Fatalf("after poisoning: state=%s trips=%d events=%d", st.BreakerState, st.BreakerTrips, st.Events)
	}

	// Inside the backoff window the breaker fails fast, no probe.
	if err := eng.Submit("t", arrivals(8, 1, 1)...); !errors.Is(err, errs.ErrTenantPoisoned) {
		t.Fatalf("submit during backoff: %v", err)
	}

	// Past the deadline, the half-open probe runs — and fails, because
	// the rebuild recipe errors. The breaker re-opens with trip 2.
	clk.advance(time.Hour)
	failProbe = true
	if err := eng.Submit("t", arrivals(8, 1, 1)...); !errors.Is(err, ErrTenantPoisoned) {
		t.Fatalf("failed probe: %v", err)
	}
	st, _ = eng.TenantStats("t")
	if st.BreakerState != "open" || st.BreakerTrips != 2 {
		t.Fatalf("after failed probe: state=%s trips=%d", st.BreakerState, st.BreakerTrips)
	}

	// Next window: the probe succeeds, the tenant is rebuilt from the 4
	// journaled good events, the 4 poisonous ones are dropped, and the
	// new submission applies.
	clk.advance(time.Hour)
	failProbe = false
	if err := eng.Submit("t", arrivals(8, 4, 1)...); err != nil {
		t.Fatalf("submit after recovery window: %v", err)
	}
	st, _ = eng.TenantStats("t")
	if st.BreakerState != "closed" || st.DroppedEvents != 4 || st.Events != 8 {
		t.Fatalf("after rebuild: state=%s dropped=%d events=%d, want closed/4/8", st.BreakerState, st.DroppedEvents, st.Events)
	}
	if err := eng.Err("t"); err != nil {
		t.Fatalf("Err after rebuild: %v", err)
	}

	// The rebuilt tenant's state equals a never-poisoned run of the kept
	// events.
	ref := core.NewGreedy(tree.MustNew(8))
	core.ApplyEvents(ref, arrivals(1, 4, 1))
	core.ApplyEvents(ref, arrivals(8, 4, 1))
	tn := eng.lockTenant("t")
	got := tn.alloc.PELoads()
	tn.mu.Unlock()
	if !reflect.DeepEqual(got, ref.PELoads()) {
		t.Errorf("rebuilt PE loads %v, reference %v", got, ref.PELoads())
	}
}

// TestRecoverMatchesUninterrupted is the crash-recovery equivalence gate
// for the clean-shutdown case: an engine journaling Submit, Flush, a
// Replay, a poisoning, and a breaker rebuild is reconstructed by Recover
// with byte-identical CanonicalStats for every tenant — including queued
// counts, batch structure, fault injection, and the poisoned tenant's
// open breaker.
func TestRecoverMatchesUninterrupted(t *testing.T) {
	dir := t.TempDir()
	log, err := wal.Open(dir, wal.Options{Sync: wal.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Shards: 3, BatchSize: 16, MaxQueue: 64, Journal: log, Rebuild: testRebuild}
	eng := New(cfg)
	clk := &fakeClock{step: 1}
	eng.now = clk.tick

	var sched bytes.Buffer
	fs := fault.Random(fault.RandomConfig{N: 64, Events: 300, Failures: 2, Seed: 5})
	if err := fault.WriteText(&sched, fs); err != nil {
		t.Fatal(err)
	}
	addSpecTenant(t, eng, TenantSpec{ID: "alpha", Algorithm: "basic", N: 16})
	addSpecTenant(t, eng, TenantSpec{ID: "perry", Algorithm: "periodic", N: 64, D: 2, DSet: true, Faults: sched.String()})
	addSpecTenant(t, eng, TenantSpec{ID: "lazy1", Algorithm: "lazy", N: 32, D: 1, DSet: true})
	addSpecTenant(t, eng, TenantSpec{ID: "doomed", Algorithm: "greedy", N: 8})
	addSpecTenant(t, eng, TenantSpec{ID: "phoenix", Algorithm: "greedy", N: 8})

	// alpha: incremental submits, remainder left queued (unflushed).
	for _, ev := range testStream(16, 300, 1) {
		if err := eng.Submit("alpha", ev); err != nil {
			t.Fatal(err)
		}
	}
	// perry: queued submits flushed by a Replay (a TypeFlush record, then
	// one TypeSubmit per batch), faults riding at their scheduled event
	// indexes.
	if err := eng.Submit("perry", arrivals(1_000_000, 10, 1)...); err != nil {
		t.Fatal(err)
	}
	if err := eng.Replay(context.Background(), map[string][]task.Event{"perry": testStream(64, 300, 2)}); err != nil {
		t.Fatal(err)
	}
	// lazy1: submits plus an explicit Flush record.
	if err := eng.Submit("lazy1", testStream(32, 100, 3)...); err != nil {
		t.Fatal(err)
	}
	if err := eng.Flush("lazy1"); err != nil {
		t.Fatal(err)
	}
	// doomed: poisoned and left that way — recovery must reproduce the
	// open breaker, not fail on it. The duplicate pair sits below the
	// batch trigger, so the explicit Flush is what detonates it.
	bad := []task.Event{{Kind: task.Arrive, Task: 1, Size: 2}, {Kind: task.Arrive, Task: 1, Size: 2}}
	if err := eng.Submit("doomed", bad...); err != nil {
		t.Fatal(err)
	}
	if err := eng.Flush("doomed"); !errors.Is(err, ErrTenantPoisoned) {
		t.Fatalf("doomed flush: %v", err)
	}
	// phoenix: poisoned, then rebuilt through the breaker (TypeRebuild
	// record), then ingesting again.
	if err := eng.Submit("phoenix", arrivals(1, 4, 1)...); err != nil {
		t.Fatal(err)
	}
	if err := eng.Flush("phoenix"); err != nil {
		t.Fatal(err)
	}
	if err := eng.Submit("phoenix", bad...); err != nil {
		t.Fatal(err)
	}
	if err := eng.Flush("phoenix"); !errors.Is(err, ErrTenantPoisoned) {
		t.Fatalf("phoenix flush: %v", err)
	}
	clk.advance(time.Hour)
	if err := eng.Submit("phoenix", arrivals(10, 5, 1)...); err != nil {
		t.Fatalf("phoenix post-rebuild submit: %v", err)
	}

	want := eng.Stats()
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}

	rec, err := Recover(Config{Shards: 3, BatchSize: 16, MaxQueue: 64, Rebuild: testRebuild}, dir, wal.Options{Sync: wal.SyncNever})
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	defer rec.cfg.Journal.Close()
	got := rec.Stats()
	if len(got) != len(want) {
		t.Fatalf("recovered %d tenants, want %d", len(got), len(want))
	}
	for i := range want {
		w, g := CanonicalStats(want[i]), CanonicalStats(got[i])
		if !bytes.Equal(w, g) {
			t.Errorf("%s: recovered stats diverge:\n  live: %s\n  rec:  %s", want[i].Tenant, w, g)
		}
	}
	if err := rec.Err("doomed"); !errors.Is(err, errs.ErrDuplicateTask) {
		t.Errorf("recovered doomed cause: %v", err)
	}

	// The recovered engine keeps journaling and ingesting where the old
	// one stopped.
	if err := rec.Submit("alpha", arrivals(9000, 3, 1)...); err != nil {
		t.Fatal(err)
	}
	if err := rec.Flush("alpha"); err != nil {
		t.Fatal(err)
	}
}

// TestRecoverRetiredApplyRecord pins where a journal from an earlier
// build stops recovering. Replay used to journal each batch as a
// TypeApply record (a flush flag byte, then the events); that type is
// retired. After the tenant's latest snapshot such a record would have
// to be replayed, so Recover fails naming record type 3. Before a later
// snapshot of the tenant it is history the snapshot summarizes, so it is
// skipped and recovery matches the live engine.
func TestRecoverRetiredApplyRecord(t *testing.T) {
	retired := wal.Record{Type: wal.TypeApply, Tenant: "t",
		Data: append([]byte{1}, wal.AppendEvents(nil, arrivals(1000, 4, 1))...)}
	for _, snapshotAfter := range []bool{false, true} {
		t.Run(fmt.Sprintf("snapshot-after=%v", snapshotAfter), func(t *testing.T) {
			dir := t.TempDir()
			log, err := wal.Open(dir, wal.Options{Sync: wal.SyncNever})
			if err != nil {
				t.Fatal(err)
			}
			cfg := Config{Shards: 2, BatchSize: 8, SnapshotEvery: 1, Rebuild: testRebuild}
			live := cfg
			live.Journal = log
			eng := New(live)
			addSpecTenant(t, eng, TenantSpec{ID: "t", Algorithm: "basic", N: 16})
			if err := eng.Submit("t", testStream(16, 40, 1)...); err != nil {
				t.Fatal(err)
			}
			if err := log.Append(retired); err != nil {
				t.Fatal(err)
			}
			if snapshotAfter {
				// A full batch applies, and the cadence snapshots after it.
				if err := eng.Submit("t", arrivals(2000, 8, 1)...); err != nil {
					t.Fatal(err)
				}
			}
			want := eng.Stats()
			if err := log.Close(); err != nil {
				t.Fatal(err)
			}

			rec, err := Recover(cfg, dir, wal.Options{Sync: wal.SyncNever})
			if !snapshotAfter {
				if err == nil {
					rec.cfg.Journal.Close()
					t.Fatal("Recover replayed a retired TypeApply record after the latest snapshot")
				}
				if !strings.Contains(err.Error(), "unknown record type 3") {
					t.Fatalf("Recover error %q does not name record type 3", err)
				}
				return
			}
			if err != nil {
				t.Fatalf("Recover: %v", err)
			}
			defer rec.cfg.Journal.Close()
			got := rec.Stats()
			if len(got) != len(want) {
				t.Fatalf("recovered %d tenants, want %d", len(got), len(want))
			}
			for i := range want {
				if w, g := CanonicalStats(want[i]), CanonicalStats(got[i]); !bytes.Equal(w, g) {
					t.Errorf("%s: recovered stats diverge:\n  live: %s\n  rec:  %s", want[i].Tenant, w, g)
				}
			}
		})
	}
}

// cancelOnArrive cancels a context at its n-th arrival, from inside the
// apply path — a deterministic mid-replay cancellation trigger. The
// interface embedding hides any BatchApplier, so the engine applies
// per-event and the count is exact.
type cancelOnArrive struct {
	core.Allocator
	n      int
	count  int
	cancel context.CancelFunc
}

func (c *cancelOnArrive) Arrive(tk task.Task) tree.Node {
	c.count++
	if c.count == c.n {
		c.cancel()
	}
	return c.Allocator.Arrive(tk)
}

// TestReplayCancelMidRunThenResume cancels a Replay partway through:
// the in-flight batch must drain (no half-applied batches), the ledger
// must be consistent at the cut, and replaying the unapplied suffix must
// converge to the uninterrupted run's state.
func TestReplayCancelMidRunThenResume(t *testing.T) {
	const batch = 8
	stream := testStream(16, 400, 9)
	ctx, cancel := context.WithCancel(context.Background())
	eng := New(Config{Shards: 1, BatchSize: batch})
	wrapped := &cancelOnArrive{Allocator: core.NewBasic(tree.MustNew(16)), n: 100, cancel: cancel}
	if err := eng.AddTenant("t", wrapped); err != nil {
		t.Fatal(err)
	}

	if err := eng.Replay(ctx, map[string][]task.Event{"t": stream}); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled Replay: %v", err)
	}
	st, _ := eng.TenantStats("t")
	if st.Events == 0 || st.Events >= int64(len(stream)) {
		t.Fatalf("applied %d of %d events; cancellation should stop partway", st.Events, len(stream))
	}
	if st.Events%batch != 0 {
		t.Errorf("Events = %d is not batch-aligned: a batch was half-applied", st.Events)
	}
	if st.Queued != 0 {
		t.Errorf("Replay left %d events queued", st.Queued)
	}
	if int64(st.Batches)*batch != st.Events {
		t.Errorf("ledger: %d batches × %d ≠ %d events", st.Batches, batch, st.Events)
	}

	// Resume with the unapplied suffix and converge on the reference.
	if err := eng.Replay(context.Background(), map[string][]task.Event{"t": stream[st.Events:]}); err != nil {
		t.Fatalf("resumed Replay: %v", err)
	}
	ref := core.NewBasic(tree.MustNew(16))
	refEng := New(Config{Shards: 1, BatchSize: batch})
	if err := refEng.AddTenant("t", ref); err != nil {
		t.Fatal(err)
	}
	if err := refEng.Replay(context.Background(), map[string][]task.Event{"t": stream}); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(wrapped.Allocator.PELoads(), ref.PELoads()) {
		t.Error("resumed run and uninterrupted run disagree on PE loads")
	}
	fin, _ := eng.TenantStats("t")
	if fin.Events != int64(len(stream)) {
		t.Errorf("resumed Events = %d, want %d", fin.Events, len(stream))
	}
}
