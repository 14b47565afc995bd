package engine

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"os/exec"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"partalloc/internal/invariant"
	"partalloc/internal/task"
	"partalloc/internal/wal"
)

// placementMembers snapshots each tenant's own stripe field under
// rebalMu, the same way auditPlacement does.
func placementMembers(e *Engine) map[string]int {
	e.rebalMu.Lock()
	defer e.rebalMu.Unlock()
	return e.members()
}

// place seats a new tenant the way admit does: on the shard choose
// picks, with its route recorded.
func place(r *routing, id string) int {
	idx := r.choose(id)
	r.set(id, idx, nil)
	return idx
}

// TestBalancedPlacerDeterminism is the placement twin of the engine's
// replay gate: two routing tables built the same way and fed the same
// placements and load histories must plan the exact same move sequences and
// end with identical routing tables. Recovery depends on this — replay
// reproduces routes from journaled moves, so a nondeterministic planner
// would make the journal's moves meaningless on the next process. On
// this load history each plan's moves also come heaviest first (Plan
// promises only greedy order), and once they are applied, the same
// loads plan no further move.
func TestBalancedPlacerDeterminism(t *testing.T) {
	const shards, d, tenants = 8, 1, 12
	mk := func() *routing {
		p := newRouting(PlacementBalanced, shards)
		for i := 0; i < tenants; i++ {
			place(p, fmt.Sprintf("t%02d", i))
		}
		return p
	}
	a, b := mk(), mk()
	if !reflect.DeepEqual(a.snapshot(), b.snapshot()) {
		t.Fatalf("initial routes diverge:\n  a: %v\n  b: %v", a.snapshot(), b.snapshot())
	}

	budget := d * shards
	planned := 0
	for pass := 0; pass < 12; pass++ {
		// A deterministic, skewed, drifting load history: quadratic skew
		// across tenants, the skew direction flipping halfway so the
		// heaviest tenants turn lightest and the planner must reseat them.
		loads := make(map[string]float64)
		for i := 0; i < tenants; i++ {
			rank := i
			if pass >= 6 {
				rank = tenants - 1 - i
			}
			loads[fmt.Sprintf("t%02d", i)] = float64((rank+1)*(rank+1)) * float64(pass+1)
		}
		ma, mb := a.Plan(loads, budget), b.Plan(loads, budget)
		if !reflect.DeepEqual(ma, mb) {
			t.Fatalf("pass %d: plans diverge:\n  a: %v\n  b: %v", pass, ma, mb)
		}
		planned += len(ma)
		if len(ma) > budget {
			t.Fatalf("pass %d: %d moves planned, budget is %d", pass, len(ma), budget)
		}
		for i, mv := range ma {
			if mv.To < 0 || mv.To >= shards || mv.To == mv.From {
				t.Fatalf("pass %d: malformed move %+v", pass, mv)
			}
			if i > 0 && loads[mv.Tenant] > loads[ma[i-1].Tenant] {
				t.Fatalf("pass %d: move %d (%s, load %v) is heavier than move %d (%s, load %v)",
					pass, i, mv.Tenant, loads[mv.Tenant], i-1, ma[i-1].Tenant, loads[ma[i-1].Tenant])
			}
			// Apply the plan the way rebalancePass does, so the next
			// pass sees the moved routing table.
			a.set(mv.Tenant, mv.To, nil)
			b.set(mv.Tenant, mv.To, nil)
		}
		if again := a.Plan(loads, budget); len(again) > 0 {
			t.Fatalf("pass %d: the applied plan's loads plan %d more moves: %v", pass, len(again), again)
		}
	}
	if planned == 0 {
		t.Fatal("the load history planned no move")
	}
	if !reflect.DeepEqual(a.snapshot(), b.snapshot()) {
		t.Fatalf("final routes diverge:\n  a: %v\n  b: %v", a.snapshot(), b.snapshot())
	}
}

// TestBalancedPlacerPlace pins where a new tenant lands under balanced
// placement: on the shard with the fewest routed tenants, the lowest
// index on ties, so a removed tenant's shard is the first one refilled.
func TestBalancedPlacerPlace(t *testing.T) {
	p := newRouting(PlacementBalanced, 6)
	want := func(id string, shard int) {
		t.Helper()
		if got := place(p, id); got != shard {
			t.Fatalf("place(%s) = shard %d, want %d (routes %v)", id, got, shard, p.snapshot())
		}
	}
	// One tenant per shard in index order, then the ties from shard 0.
	for i := 0; i < 9; i++ {
		want(fmt.Sprintf("t%d", i), i%6)
	}
	// Shard 4 is emptied, so it is refilled before shards 3 and 5, which
	// hold one tenant each.
	p.drop("t4")
	want("t9", 4)
	want("t10", 3)
	// Counts follow the routes: rerouting t10 off shard 3 ties it with
	// shard 4 for the fewest tenants, and the lower index wins.
	p.set("t10", 5, nil)
	want("t11", 3)
	want("t12", 4)
}

// TestBalancedPlacerPlanHalfGap pins the levelling rule: each move takes
// the heaviest tenant on the most-loaded shard whose load is positive
// and below half the gap to the least-loaded shard, lowest ID on ties,
// and a budget short of the plan keeps its first moves. The fleets the
// rule leaves alone plan nothing.
func TestBalancedPlacerPlanHalfGap(t *testing.T) {
	// a, b and c load shard 2 to 14 and d loads shard 1 to 1. b leaves
	// first, for empty shard 0 (a's 8 is not below half of 14); then
	// shard 1 is the coldest, and c (2 < (10−1)/2) joins d there.
	levels := map[string]int{"a": 2, "b": 2, "c": 2, "d": 1}
	levelsLoads := map[string]float64{"a": 8, "b": 4, "c": 2, "d": 1}
	cases := []struct {
		name   string
		routes map[string]int
		loads  map[string]float64
		budget int
		want   []Move
	}{
		{"levels", levels, levelsLoads, 3, []Move{{Tenant: "b", From: 2, To: 0}, {Tenant: "c", From: 2, To: 1}}},
		{"budget keeps the first moves", levels, levelsLoads, 1, []Move{{Tenant: "b", From: 2, To: 0}}},
		{"ties go to the lowest ID", map[string]int{"a": 0, "b": 0, "c": 0},
			map[string]float64{"a": 2, "b": 2, "c": 10}, 1, []Move{{Tenant: "a", From: 0, To: 1}}},
		{"levelled fleet", map[string]int{"a": 0, "b": 1, "c": 2, "d": 2},
			map[string]float64{"a": 6, "b": 5, "c": 3, "d": 3}, 3, nil},
		// Moving a lone tenant would only swap its shard with an empty one.
		{"lone tenant", map[string]int{"a": 0}, map[string]float64{"a": 9}, 3, nil},
		{"at half the gap", map[string]int{"a": 0, "b": 0}, map[string]float64{"a": 4, "b": 4}, 3, nil},
		{"idle tenant", map[string]int{"a": 0, "b": 0}, map[string]float64{"a": 9, "b": 0}, 3, nil},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			p := newRouting(PlacementBalanced, 3)
			for id, shard := range c.routes {
				p.set(id, shard, nil)
			}
			if got := p.Plan(c.loads, c.budget); !reflect.DeepEqual(got, c.want) {
				t.Errorf("Plan = %v, want %v", got, c.want)
			}
		})
	}

	// Shards 0 and 1 hold the same three loads, whose float sum depends
	// on the order they are added in: summed in map order, either shard
	// could come out hotter and lose a tenant first.
	t.Run("map order", func(t *testing.T) {
		routes := map[string]int{"x1": 0, "x2": 0, "x3": 0, "y1": 1, "y2": 1, "y3": 1, "z": 2}
		ids := []string{"x1", "x2", "x3", "y1", "y2", "y3", "z"}
		load := map[string]float64{"x1": 0.1, "x2": 0.2, "x3": 0.3, "y1": 0.1, "y2": 0.2, "y3": 0.3, "z": 0.05}
		want := []Move{{Tenant: "x2", From: 0, To: 2}, {Tenant: "y1", From: 1, To: 2}}
		rng := rand.New(rand.NewSource(1))
		for i := 0; i < 50; i++ {
			p := newRouting(PlacementBalanced, 3)
			loads := make(map[string]float64, len(ids))
			for _, j := range rng.Perm(len(ids)) {
				p.set(ids[j], routes[ids[j]], nil)
				loads[ids[j]] = load[ids[j]]
			}
			if got := p.Plan(loads, 3); !reflect.DeepEqual(got, want) {
				t.Fatalf("build %d: Plan = %v, want %v", i, got, want)
			}
		}
	})
}

// TestBalancedPlacerPlanProperty checks the rule on 200 seeded fleets
// of 2–8 shards and up to 48 tenants, some idle, with integer loads so
// every sum is exact whatever its order. Each move must lower the larger
// of its two shards' loads, the largest shard load must never rise, and
// a plan its budget did not cut must, once applied, re-plan nothing.
func TestBalancedPlacerPlanProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	for c := 0; c < 200; c++ {
		shards, tenants := 2+rng.Intn(7), rng.Intn(49)
		p := newRouting(PlacementBalanced, shards)
		loads := make(map[string]float64, tenants)
		sum := make([]float64, shards)
		for i := 0; i < tenants; i++ {
			id, shard, load := fmt.Sprintf("t%02d", i), rng.Intn(shards), 0.0
			if rng.Intn(5) > 0 {
				load = float64(1 + rng.Intn(60))
			}
			p.set(id, shard, nil)
			loads[id] = load
			sum[shard] += load
		}
		budget := 1 + rng.Intn(2*shards)
		moves := p.Plan(loads, budget)
		if len(moves) > budget {
			t.Fatalf("case %d: %d moves planned, budget is %d", c, len(moves), budget)
		}
		for i, mv := range moves {
			if at, _ := p.lookup(mv.Tenant); at.shard != mv.From || mv.To == mv.From {
				t.Fatalf("case %d: move %d %+v from shard %d", c, i, mv, at.shard)
			}
			before, peak := max(sum[mv.From], sum[mv.To]), slices.Max(sum)
			sum[mv.From] -= loads[mv.Tenant]
			sum[mv.To] += loads[mv.Tenant]
			if after := max(sum[mv.From], sum[mv.To]); after >= before {
				t.Fatalf("case %d: move %d %+v (load %v) takes the pair's larger load from %v to %v",
					c, i, mv, loads[mv.Tenant], before, after)
			}
			if slices.Max(sum) > peak {
				t.Fatalf("case %d: move %d %+v raises the largest shard load above %v: %v", c, i, mv, peak, sum)
			}
			p.set(mv.Tenant, mv.To, nil)
		}
		if len(moves) < budget {
			if again := p.Plan(loads, budget); len(again) > 0 {
				t.Fatalf("case %d: the applied plan re-plans %v (loads %v)", c, again, sum)
			}
		}
	}
}

// TestRebalanceCadenceCountsFromPassStart pins a forced pass's cadence
// to its start: batches other clients apply while a pass runs count
// toward the next pass, so how long a pass takes does not change how
// many passes run. The pass's plan moves tenant e from stripe 1 to
// stripe 2, and the test holds it at that move on e's lock while tenant
// a, on stripe 0, applies RebalanceEvery batches, whose own passes lose
// the TryLock; once the held pass ends, the next one is due on a's next
// batch.
func TestRebalanceCadenceCountsFromPassStart(t *testing.T) {
	const every = 8
	eng := New(Config{Shards: 3, BatchSize: 1 << 10, Placement: PlacementBalanced,
		RebalanceD: 1, RebalanceEvery: every, Rebuild: testRebuild})
	// The fewest-tenants rule seats a and d on stripe 0, b and e on
	// stripe 1, and c on stripe 2.
	for _, id := range []string{"a", "b", "c", "d", "e"} {
		addSpecTenant(t, eng, TenantSpec{ID: id, Algorithm: "greedy", N: 8})
	}
	if got := []int{eng.route("a"), eng.route("b"), eng.route("c"), eng.route("d"), eng.route("e")}; !slices.Equal(got, []int{0, 1, 2, 0, 1}) {
		t.Fatalf("routes of a..e = %v, want [0 1 2 0 1]", got)
	}
	// feed applies n arrivals to id as one batch.
	feed := func(id string, from, n int) {
		t.Helper()
		if err := eng.Submit(id, arrivals(from, n, 1)...); err != nil {
			t.Fatal(err)
		}
		if err := eng.Flush(id); err != nil {
			t.Fatal(err)
		}
	}
	// Stripe 0 weighs d's 20 events plus a's 1 to 1+every, stripe 1
	// b's 100 and e's 10, and stripe 2 nothing. The plan moves e, below
	// half the gap, from the hot stripe 1 to the cold stripe 2, and then
	// nothing: b alone is above half of any gap.
	feed("d", 1, 20)
	feed("b", 1, 100)
	feed("e", 1, 10)
	next := 1
	batch := func() {
		t.Helper()
		feed("a", next, 1)
		next++
	}
	batch()
	start := eng.batchesTotal.Load()

	held := eng.lockTenant("e")
	done := make(chan error, 1)
	go func() {
		_, err := eng.Rebalance()
		done <- err
	}()
	// The pass has started, and read the batch count, once it has set
	// the next due point. It measures without tenant locks and then
	// waits for e's lock to move e.
	for eng.nextRebal.Load() != start+every {
		runtime.Gosched()
	}
	if eng.rebalMu.TryLock() {
		eng.rebalMu.Unlock()
		t.Error("rebalMu is free while the pass waits for tenant e")
	}
	for i := 0; i < every; i++ {
		batch()
	}
	select {
	case err := <-done:
		t.Fatalf("the pass ended (err %v) while its moving tenant was held", err)
	default:
	}
	held.mu.Unlock()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if rs := eng.RebalanceStats(); rs.Passes != 1 || rs.Moves != 1 || eng.route("e") != 2 {
		t.Fatalf("%d passes, %d moves, e on stripe %d; want only the held pass, moving e to stripe 2",
			rs.Passes, rs.Moves, eng.route("e"))
	}
	// The held pass started at batch start, so the next is due at
	// start+every, which has already been applied.
	if got := eng.nextRebal.Load(); got != start+every {
		t.Errorf("next pass due at batch %d, want %d", got, start+every)
	}
	batch()
	if got := eng.RebalanceStats().Passes; got != 2 {
		t.Errorf("%d passes after the first batch past the due point, want 2", got)
	}
}

// TestRebalanceCadenceCountsFromDuePoint checks that a due pass sets
// the next due point RebalanceEvery batches after the point it crossed,
// not after the batch count it read. One tenant's eight 3-event Submits
// apply 24 one-event batches and cross the due points 4, 8, ..., 24: six
// passes, where counting from the count read would run four. A call
// that crosses two due points runs one pass, and the next pass is due
// at the first cadence point above the count.
func TestRebalanceCadenceCountsFromDuePoint(t *testing.T) {
	const every, submits, size = 4, 8, 3
	eng := New(Config{Shards: 2, BatchSize: 1, Placement: PlacementBalanced,
		RebalanceD: 1, RebalanceEvery: every})
	addSpecTenant(t, eng, TenantSpec{ID: "t", Algorithm: "greedy", N: 8})
	submit := func(from, n int) {
		t.Helper()
		if err := eng.Submit("t", arrivals(from, n, 1)...); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < submits; i++ {
		submit(1+i*size, size)
	}
	if got := eng.batchesTotal.Load(); got != submits*size {
		t.Fatalf("%d batches applied, want %d", got, submits*size)
	}
	if got, want := eng.RebalanceStats().Passes, int64(submits*size/every); got != want {
		t.Errorf("%d passes over %d batches due every %d, want %d", got, submits*size, every, want)
	}
	if got := eng.nextRebal.Load(); got != submits*size+every {
		t.Errorf("next pass due at batch %d, want %d", got, submits*size+every)
	}
	// Batches 25..33 cross the due points 28 and 32.
	submit(1+submits*size, 9)
	if got, want := eng.RebalanceStats().Passes, int64(submits*size/every+1); got != want {
		t.Errorf("%d passes after one call crossed two due points, want %d", got, want)
	}
	if got := eng.nextRebal.Load(); got != 36 {
		t.Errorf("next pass due at batch %d, want 36, the first cadence point above 33", got)
	}
}

// TestRebalancePassMeasuresWithoutStripeLocks checks that a pass which
// plans no move completes while another goroutine holds a tenant's lock:
// the measure step reads the tenants' load meters under rebalMu alone,
// and only a move takes a lock, the moving tenant's.
func TestRebalancePassMeasuresWithoutStripeLocks(t *testing.T) {
	eng := New(Config{Shards: 2, BatchSize: 4, Placement: PlacementBalanced,
		RebalanceD: 1, RebalanceEvery: 1 << 30})
	// One tenant per stripe with equal loads: the plan moves nothing.
	for _, id := range []string{"a", "b"} {
		addSpecTenant(t, eng, TenantSpec{ID: id, Algorithm: "greedy", N: 8})
		if err := eng.Submit(id, arrivals(1, 4, 1)...); err != nil {
			t.Fatal(err)
		}
	}
	held := eng.lockTenant("a")
	defer held.mu.Unlock()
	done := make(chan error, 1)
	go func() {
		moved, err := eng.Rebalance()
		if err == nil && moved != 0 {
			err = fmt.Errorf("the pass moved %d tenants, want 0", moved)
		}
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("a pass that plans no move did not complete while a tenant's lock was held")
	}
	if got := eng.RebalanceStats().Passes; got != 1 {
		t.Errorf("%d passes, want 1", got)
	}
}

// TestRebalanceMeterDuringHeals runs passes while other goroutines
// apply batches, poison tenants with a pill (a task that arrives twice)
// and let the breaker heal them. A heal restores a snapshot's lower
// event count and replays back up to the count it had, so a pass that
// read a count mid-heal would fold a negative window: no estimate may
// go negative. A poisoned tenant's route is frozen until it heals, so
// no tenant may move while it is poisoned. Run under -race, this is the
// load meter's memory-model gate.
func TestRebalanceMeterDuringHeals(t *testing.T) {
	eng := New(Config{Shards: 4, BatchSize: 4, Journal: testJournal(t), Placement: PlacementBalanced,
		RebalanceD: 2, RebalanceEvery: 4, Rebuild: testRebuild})
	clk := &fakeClock{step: 1}
	eng.now = clk.tick
	const healthy, pilled, rounds = 4, 3, 12
	for i := 0; i < healthy; i++ {
		addSpecTenant(t, eng, TenantSpec{ID: fmt.Sprintf("h%d", i), Algorithm: "basic", N: 16})
	}
	for i := 0; i < pilled; i++ {
		addSpecTenant(t, eng, TenantSpec{ID: fmt.Sprintf("p%d", i), Algorithm: "greedy", N: 16})
	}

	// negative finds a tenant whose load estimate is below zero.
	negative := func() (id string, est float64, found bool) {
		eng.rebalMu.Lock()
		defer eng.rebalMu.Unlock()
		for id, rt := range eng.routing.routes {
			if !(rt.t.meter.est >= 0) {
				return id, rt.t.meter.est, true
			}
		}
		return "", 0, false
	}
	stop := make(chan struct{})
	passesDone := make(chan struct{})
	go func() {
		defer close(passesDone)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := eng.Rebalance(); err != nil {
				t.Errorf("rebalance: %v", err)
				return
			}
			if id, est, found := negative(); found {
				t.Errorf("tenant %s: load estimate %v after a pass, want >= 0", id, est)
				return
			}
		}
	}()
	// waitPasses returns once n more passes than now have completed, or
	// the pass loop has stopped on an error.
	waitPasses := func(n int64) {
		for target := eng.RebalanceStats().Passes + n; eng.RebalanceStats().Passes < target; {
			select {
			case <-passesDone:
				return
			default:
				runtime.Gosched()
			}
		}
	}

	var wg sync.WaitGroup
	var heals atomic.Int64
	for i := 0; i < healthy; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			id, evs := fmt.Sprintf("h%d", i), testStream(16, 150*(i+1), int64(i+1))
			for off := 0; off < len(evs); off += 3 {
				if err := eng.Submit(id, evs[off:min(off+3, len(evs))]...); err != nil {
					t.Errorf("submit %s: %v", id, err)
					return
				}
			}
		}(i)
	}
	for i := 0; i < pilled; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			id, next := fmt.Sprintf("p%d", i), 1
			for r := 0; r < rounds; r++ {
				if err := eng.Submit(id, arrivals(next, 4*(i+2), 1)...); err != nil {
					t.Errorf("submit %s: %v", id, err)
					return
				}
				next += 4 * (i + 2)
				// Passes decay the estimate toward 0 first, so a pass that
				// folded a count below its mark would leave it negative.
				waitPasses(64)
				pill := []task.Event{
					{Kind: task.Arrive, Task: task.ID(next), Size: 1},
					{Kind: task.Arrive, Task: task.ID(next), Size: 1},
					{Kind: task.Arrive, Task: task.ID(next + 1), Size: 1},
					{Kind: task.Arrive, Task: task.ID(next + 2), Size: 1},
				}
				next += 3
				if err := eng.Submit(id, pill...); !errors.Is(err, ErrTenantPoisoned) {
					t.Errorf("pill for %s: %v, want ErrTenantPoisoned", id, err)
					return
				}
				from := eng.route(id)
				waitPasses(2)
				if to := eng.route(id); to != from {
					t.Errorf("poisoned tenant %s moved from stripe %d to %d", id, from, to)
				}
				// Past the backoff, the Flush's half-open probe heals it.
				clk.advance(time.Hour)
				if err := eng.Flush(id); err != nil {
					t.Errorf("heal %s: %v", id, err)
					return
				}
				heals.Add(1)
			}
		}(i)
	}
	wg.Wait()
	close(stop)
	<-passesDone

	rs := eng.RebalanceStats()
	t.Logf("%d passes, %d moves, %d heals", rs.Passes, rs.Moves, heals.Load())
	if heals.Load() != pilled*rounds {
		t.Errorf("%d heals, want %d", heals.Load(), pilled*rounds)
	}
	if len(rs.Violations) > 0 {
		t.Errorf("rebalance audit: %d violations, first: %s", len(rs.Violations), rs.Violations[0])
	}
	if v := invariant.CheckRouting(eng.Routes(), placementMembers(eng)); len(v) > 0 {
		t.Errorf("routing inconsistent after the run: %v", v)
	}
}

// TestReplayRunsDuePass checks that a rebalance pass falls due inside
// Replay as in every other ingestion call: a balanced engine fed only by
// Replay applies many RebalanceEvery cadences of batches, so it must run
// passes.
func TestReplayRunsDuePass(t *testing.T) {
	const every = 4
	eng := New(Config{Shards: 4, BatchSize: 8, Placement: PlacementBalanced, RebalanceEvery: every})
	streams := make(map[string][]task.Event)
	for i := range 5 {
		spec := TenantSpec{ID: fmt.Sprintf("b%d", i), Algorithm: "basic", N: 32}
		addSpecTenant(t, eng, spec)
		streams[spec.ID] = testStream(spec.N, 200, int64(i+1))
	}
	if err := eng.Replay(context.Background(), streams); err != nil {
		t.Fatal(err)
	}
	if passes := eng.RebalanceStats().Passes; passes == 0 {
		t.Errorf("no rebalance pass ran in %d batches through Replay, due every %d",
			eng.batchesTotal.Load(), every)
	}
}

// TestBreakerHealKeepsLoadEstimate checks that a breaker heal carries
// the tenant's rebalance load estimate across the rebuild: the rebuild
// replays the kept events, so a zeroed mark would make the next pass
// count the tenant's whole history as one window and see its shard hot.
func TestBreakerHealKeepsLoadEstimate(t *testing.T) {
	eng := New(Config{Shards: 2, BatchSize: 4, Journal: testJournal(t), Placement: PlacementBalanced,
		RebalanceD: 1, RebalanceEvery: 1 << 30, Rebuild: testRebuild})
	clk := &fakeClock{step: 1}
	eng.now = clk.tick
	addSpecTenant(t, eng, TenantSpec{ID: "t", Algorithm: "greedy", N: 8})
	// estimate reads the tenant's count under its lock, then its meter's
	// published count, mark and estimate under rebalMu.
	estimate := func() (events, published, mark int64, est float64) {
		tn := eng.lockTenant("t")
		events, m := tn.events, tn.meter
		tn.mu.Unlock()
		eng.rebalMu.Lock()
		defer eng.rebalMu.Unlock()
		return events, m.events.Load(), m.mark, m.est
	}

	if err := eng.Submit("t", arrivals(1, 4, 1)...); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Rebalance(); err != nil {
		t.Fatal(err)
	}
	if events, published, mark, est := estimate(); events != 4 || published != 4 || mark != 4 || est != 4 {
		t.Fatalf("after a pass: events %d, published %d, mark %d, estimate %v, want 4/4/4/4", events, published, mark, est)
	}
	poison := []task.Event{
		{Kind: task.Arrive, Task: 5, Size: 1},
		{Kind: task.Arrive, Task: 5, Size: 1},
		{Kind: task.Arrive, Task: 6, Size: 1},
		{Kind: task.Arrive, Task: 7, Size: 1},
	}
	if err := eng.Submit("t", poison...); !errors.Is(err, ErrTenantPoisoned) {
		t.Fatalf("poisonous submit: %v", err)
	}
	// Past the backoff, the Flush's half-open probe heals the tenant.
	clk.advance(time.Hour)
	if err := eng.Flush("t"); err != nil {
		t.Fatalf("probe: %v", err)
	}
	if events, published, mark, est := estimate(); events != 4 || published != 4 || mark != 4 || est != 4 {
		t.Errorf("after the heal: events %d, published %d, mark %d, estimate %v, want 4/4/4/4", events, published, mark, est)
	}
	// The heal's window is empty: the next pass only decays the estimate.
	if _, err := eng.Rebalance(); err != nil {
		t.Fatal(err)
	}
	if _, _, mark, est := estimate(); mark != 4 || est != rebalDecay*4 {
		t.Errorf("the pass after the heal: mark %d, estimate %v, want 4 and %v", mark, est, rebalDecay*4)
	}
}

// TestMoveTenantRoutesThroughPlacer is the regression gate for the
// cross-engine move path: MoveTenant must retire the source route with
// the source membership and seat the tenant at the destination through
// its routing table, so neither engine's routing table can disagree
// with its shard membership after the move. A move onto an engine that
// already has the tenant is refused and leaves both engines' tenants
// where they were.
func TestMoveTenantRoutesThroughPlacer(t *testing.T) {
	cfg := Config{Shards: 4, BatchSize: 4, Placement: PlacementBalanced,
		RebalanceD: 1, RebalanceEvery: 1 << 30, Rebuild: testRebuild}
	src, dst := New(cfg), New(cfg)
	for i := 0; i < 3; i++ {
		addSpecTenant(t, src, TenantSpec{ID: fmt.Sprintf("src%d", i), Algorithm: "basic", N: 16})
		addSpecTenant(t, dst, TenantSpec{ID: fmt.Sprintf("dst%d", i), Algorithm: "basic", N: 16})
	}
	addSpecTenant(t, src, TenantSpec{ID: "mover", Algorithm: "basic", N: 16})
	if _, ok := src.routing.lookup("mover"); !ok {
		t.Fatal("tenant not routed at the source before the move")
	}
	twin := TenantSpec{ID: "twin", Algorithm: "basic", N: 16}
	addSpecTenant(t, src, twin)
	addSpecTenant(t, dst, twin)
	if err := src.MoveTenant("twin", dst); !errors.Is(err, ErrDuplicateTenant) {
		t.Fatalf("MoveTenant onto an engine that has the tenant = %v, want ErrDuplicateTenant", err)
	}
	for name, e := range map[string]*Engine{"source": src, "destination": dst} {
		if _, err := e.TenantStats("twin"); err != nil {
			t.Errorf("%s lost its own tenant to a refused move: %v", name, err)
		}
	}
	if err := src.Submit("mover", arrivals(1, 6, 1)...); err != nil {
		t.Fatal(err)
	}

	if err := src.MoveTenant("mover", dst); err != nil {
		t.Fatalf("MoveTenant: %v", err)
	}

	if _, ok := src.routing.lookup("mover"); ok {
		t.Error("source routing table still routes the tenant after the move")
	}
	idx, ok := dst.Routes()["mover"]
	if !ok {
		t.Fatal("destination routing table has no route for the moved tenant")
	}
	members := placementMembers(dst)
	if got, ok := members["mover"]; !ok || got != idx {
		t.Errorf("destination routes the tenant to shard %d but membership says shard %d (present=%v)", idx, got, ok)
	}
	// Both tables must stay bijections to their shard membership.
	if v := invariant.CheckRouting(src.Routes(), placementMembers(src)); len(v) > 0 {
		t.Errorf("source routing inconsistent after move: %v", v)
	}
	if v := invariant.CheckRouting(dst.Routes(), members); len(v) > 0 {
		t.Errorf("destination routing inconsistent after move: %v", v)
	}
	// The moved tenant still ingests at its new home.
	if err := dst.Submit("mover", arrivals(100, 3, 1)...); err != nil {
		t.Fatal(err)
	}
	if err := dst.Flush("mover"); err != nil {
		t.Fatal(err)
	}
}

// moveToOtherStripe moves id to the other stripe of a 2-shard engine
// the way a rebalance pass does, under rebalMu.
func moveToOtherStripe(t *testing.T, e *Engine, id string) {
	t.Helper()
	from := e.route(id)
	e.rebalMu.Lock()
	//lint:ignore lockorder moveTenantLocal requires rebalMu, as in Rebalance, and on a journaled engine a pass appends each move's record under it the same way
	moved, err := e.moveTenantLocal(id, from, 1-from)
	e.rebalMu.Unlock()
	if err != nil || !moved {
		t.Fatalf("move %q from shard %d: moved=%v err=%v", id, from, moved, err)
	}
}

// TestMoveTenantLocalRelocates checks that a rebalance move is a
// relocation, not a rebuild: the destination stripe holds the same
// tenant with the same allocator and an unchanged ledger and load
// estimate, and a warm move allocates nothing, also when it journals
// its TypeMove record.
func TestMoveTenantLocalRelocates(t *testing.T) {
	for _, tc := range []struct {
		name      string
		journaled bool
	}{
		{"unjournaled", false},
		{"journaled", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Config{Shards: 2, BatchSize: 8, Placement: PlacementBalanced,
				RebalanceEvery: 1 << 30, Rebuild: testRebuild}
			if tc.journaled {
				cfg.Journal = testJournal(t)
			}
			eng := New(cfg)
			addSpecTenant(t, eng, TenantSpec{ID: "t", Algorithm: "random", N: 64, Seed: 3})
			if err := eng.Submit("t", arrivals(1, 20, 1)...); err != nil {
				t.Fatal(err)
			}
			// A pass folds the applied events into the tenant's load estimate.
			if _, err := eng.Rebalance(); err != nil {
				t.Fatal(err)
			}

			from := eng.route("t")
			tn := eng.routing.routes["t"].t
			alloc, meter, est := tn.alloc, tn.meter, tn.meter.est
			if est == 0 {
				t.Fatal("rebalance pass left no load estimate to carry")
			}
			before, _ := eng.TenantStats("t")
			moveToOtherStripe(t, eng, "t")
			rt := eng.routing.routes["t"]
			if rt.shard != 1-from || rt.t.shardIdx != 1-from {
				t.Fatalf("route %d, tenant's stripe %d after the move, want %d", rt.shard, rt.t.shardIdx, 1-from)
			}
			got := rt.t
			if got != tn {
				t.Fatalf("destination holds tenant %p, want the moved tenant %p", got, tn)
			}
			if got.alloc != alloc {
				t.Fatal("the move replaced the tenant's allocator")
			}
			if got.meter != meter || meter.est != est {
				t.Errorf("load estimate %v after the move, want the same meter holding %v", got.meter.est, est)
			}
			if after, _ := eng.TenantStats("t"); !reflect.DeepEqual(after, before) {
				t.Errorf("move changed the ledger:\n  before: %+v\n  after:  %+v", before, after)
			}

			if avg := testing.AllocsPerRun(100, func() { moveToOtherStripe(t, eng, "t") }); avg >= 1 {
				t.Errorf("a local move allocates %v objects, want < 1", avg)
			}
		})
	}
}

// rebalCrashEnv points the rebalance crash child at its journal
// directory; doubles as the guard that keeps TestRebalanceCrashChild
// inert in normal runs. The child drops a "<dir>.moved" marker file
// once its engine has performed at least one rebalance move, so the
// parent's SIGKILL is guaranteed to land after a TypeMove record hit
// the journal.
const rebalCrashEnv = "PARTALLOC_REBAL_CRASH_DIR"

func rebalCrashFleet() []TenantSpec {
	specs := make([]TenantSpec, 6)
	for i := range specs {
		specs[i] = TenantSpec{ID: fmt.Sprintf("rt%d", i), Algorithm: "basic", N: 16}
	}
	return specs
}

func rebalCrashConfig(log *wal.Log) Config {
	return Config{Shards: 4, BatchSize: 8, MaxQueue: 64, Overload: Block,
		Placement: PlacementBalanced, RebalanceD: 1, RebalanceEvery: 4,
		Journal: log, Rebuild: testRebuild}
}

// TestRebalanceCrashChild is the helper body for
// TestSIGKILLRebalanceRecovery, not a test: a balanced-placement
// journaled engine ingesting a skewed fleet until the parent kills it.
func TestRebalanceCrashChild(t *testing.T) {
	dir := os.Getenv(rebalCrashEnv)
	if dir == "" {
		t.Skip("rebalance crash-child helper; driven by TestSIGKILLRebalanceRecovery")
	}
	log, err := wal.Open(dir, wal.Options{Sync: wal.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	eng := New(rebalCrashConfig(log))
	fleet := rebalCrashFleet()
	// Skewed per-round chunk sizes: tenant 0 is 8× the tail, so the load
	// estimates diverge immediately and the placer resizes and moves.
	weights := []int{8, 4, 2, 1, 1, 1}
	streams := make([][]task.Event, len(fleet))
	for i, spec := range fleet {
		addSpecTenant(t, eng, spec)
		streams[i] = testStream(spec.N, 500_000, int64(i+1))
	}
	offs := make([]int, len(fleet))
	marked := false
	for {
		for i, spec := range fleet {
			evs, off := streams[i], offs[i]
			if off >= len(evs) {
				t.Fatal("crash child exhausted its stream before being killed")
			}
			end := off + weights[i]
			if end > len(evs) {
				end = len(evs)
			}
			if err := eng.Submit(spec.ID, evs[off:end]...); err != nil {
				t.Fatalf("child submit %s: %v", spec.ID, err)
			}
			offs[i] = end
		}
		if !marked && eng.RebalanceStats().Moves > 0 {
			if err := os.WriteFile(dir+".moved", []byte("moved\n"), 0o644); err != nil {
				t.Fatal(err)
			}
			marked = true
		}
	}
}

// TestSIGKILLRebalanceRecovery crash-tests the placement layer: the
// child journals skewed ingestion and intra-engine rebalance moves,
// gets SIGKILLed mid-stream after at least one move committed, and the
// recovered engine must replay those TypeMove records into a routing
// table that is an exact bijection to shard membership — no tenant
// lost, duplicated, or routed to a shard it does not live on — and
// keep ingesting and rebalancing afterwards.
func TestSIGKILLRebalanceRecovery(t *testing.T) {
	if os.Getenv(rebalCrashEnv) != "" {
		t.Skip("already inside the rebalance crash child")
	}
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	cmd := exec.Command(exe, "-test.run=^TestRebalanceCrashChild$")
	cmd.Env = append(os.Environ(), rebalCrashEnv+"="+dir)
	out, err := os.CreateTemp(t.TempDir(), "childout")
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stdout, cmd.Stderr = out, out
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	childOutput := func() string {
		b, _ := os.ReadFile(out.Name())
		return string(b)
	}

	// Kill only after the child reported a committed rebalance move (the
	// marker file) AND the journal grew another chunk past it, so the
	// SIGKILL lands mid-ingest with TypeMove records already durable.
	journalSize := func() int64 {
		var total int64
		ents, _ := os.ReadDir(dir)
		for _, ent := range ents {
			if info, err := ent.Info(); err == nil {
				total += info.Size()
			}
		}
		return total
	}
	deadline := time.Now().Add(120 * time.Second)
	var sizeAtMove int64 = -1
	for {
		if time.Now().After(deadline) {
			cmd.Process.Kill()
			cmd.Wait()
			t.Fatalf("child never committed a rebalance move; output:\n%s", childOutput())
		}
		if sizeAtMove < 0 {
			if _, err := os.Stat(dir + ".moved"); err == nil {
				sizeAtMove = journalSize()
			}
		} else if journalSize() >= sizeAtMove+(16<<10) {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	if err := cmd.Wait(); err == nil {
		t.Fatalf("child exited cleanly instead of dying to SIGKILL; output:\n%s", childOutput())
	}

	rec, err := Recover(rebalCrashConfig(nil), dir, wal.Options{Sync: wal.SyncNever})
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	defer rec.cfg.Journal.Close()

	if got := rec.RecoveryStats().MovesReplayed; got < 1 {
		t.Errorf("MovesReplayed = %d, want >= 1: the child committed a move before dying", got)
	}
	fleet := rebalCrashFleet()
	routes := rec.Routes()
	if len(routes) != len(fleet) {
		t.Errorf("recovered %d routes, fleet has %d tenants: %v", len(routes), len(fleet), routes)
	}
	for _, spec := range fleet {
		if _, ok := routes[spec.ID]; !ok {
			t.Errorf("tenant %s lost its route across the crash", spec.ID)
		}
	}
	if v := invariant.CheckRouting(routes, placementMembers(rec)); len(v) > 0 {
		t.Errorf("recovered routing table inconsistent with shard membership: %v", v)
	}

	// Life goes on: the recovered engine ingests, flushes, and runs
	// rebalance passes against the replayed routing table.
	for i, spec := range fleet {
		// Task IDs far above anything the child's streams used, so the
		// arrivals cannot collide with tasks still resident in the
		// recovered allocators.
		if err := rec.Submit(spec.ID, arrivals(9_000_000+i*100, 3, 1)...); err != nil {
			t.Fatalf("post-recovery submit %s: %v", spec.ID, err)
		}
	}
	if err := rec.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if _, err := rec.Rebalance(); err != nil {
		t.Fatalf("post-recovery rebalance: %v", err)
	}
	if st := rec.RebalanceStats(); len(st.Violations) > 0 {
		t.Errorf("post-recovery rebalance violations: %v", st.Violations)
	}
}

// TestConcurrentSubmitDuringRebalance hammers forced rebalance passes
// while every tenant's stream is being submitted from its own
// goroutine, and a further goroutine registers fresh tenants and moves
// every third one to a second engine. Run under -race this is the
// placement layer's memory-model gate; the assertions close the loop on
// conservation (no event lost or duplicated by a mid-ingest move) and
// on routing consistency at both engines.
func TestConcurrentSubmitDuringRebalance(t *testing.T) {
	cfg := Config{Shards: 4, BatchSize: 16, MaxQueue: 256, Overload: Block,
		Placement: PlacementBalanced, RebalanceD: 2, RebalanceEvery: 2, Rebuild: testRebuild}
	eng, dst := New(cfg), New(cfg)
	const tenants = 8
	streams := make([][]task.Event, tenants)
	for i := 0; i < tenants; i++ {
		spec := TenantSpec{ID: fmt.Sprintf("c%d", i), Algorithm: "basic", N: 16}
		addSpecTenant(t, eng, spec)
		// Skewed volumes so passes actually plan moves mid-flight.
		streams[i] = testStream(spec.N, 400*(i+1), int64(i+1))
	}

	var wg sync.WaitGroup
	for i := 0; i < tenants; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			id, evs := fmt.Sprintf("c%d", i), streams[i]
			chunk := i + 1
			for off := 0; off < len(evs); off += chunk {
				end := off + chunk
				if end > len(evs) {
					end = len(evs)
				}
				if err := eng.Submit(id, evs[off:end]...); err != nil {
					t.Errorf("submit %s: %v", id, err)
					return
				}
			}
		}(i)
	}
	const fresh = 24
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < fresh; i++ {
			spec := TenantSpec{ID: fmt.Sprintf("f%02d", i), Algorithm: "basic", N: 16}
			a, _, _, err := testRebuild(spec)
			if err == nil {
				err = eng.AddTenant(spec.ID, a, WithTenantSpec(spec))
			}
			if err == nil {
				err = eng.Submit(spec.ID, arrivals(1, 4, 1)...)
			}
			if err == nil && i%3 == 0 {
				err = eng.MoveTenant(spec.ID, dst)
			}
			if err != nil {
				t.Errorf("fresh tenant %s: %v", spec.ID, err)
				return
			}
		}
	}()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 64; i++ {
			if _, err := eng.Rebalance(); err != nil {
				t.Errorf("rebalance: %v", err)
				return
			}
		}
	}()
	wg.Wait()
	<-done
	if err := eng.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if _, err := dst.Rebalance(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < fresh; i++ {
		id, home, away := fmt.Sprintf("f%02d", i), eng, dst
		if i%3 == 0 {
			home, away = dst, eng
		}
		if _, err := home.TenantStats(id); err != nil {
			t.Errorf("fresh tenant %s missing from its engine: %v", id, err)
		}
		if _, err := away.TenantStats(id); err == nil {
			t.Errorf("fresh tenant %s registered on both engines", id)
		}
	}

	// Conservation: every submitted event was applied exactly once,
	// moves notwithstanding.
	byID := make(map[string]TenantStats)
	for _, st := range eng.Stats() {
		byID[st.Tenant] = st
	}
	for i := 0; i < tenants; i++ {
		id := fmt.Sprintf("c%d", i)
		st, ok := byID[id]
		if !ok {
			t.Errorf("tenant %s vanished during concurrent rebalancing", id)
			continue
		}
		if st.Events != int64(len(streams[i])) {
			t.Errorf("%s: %d events applied, submitted %d", id, st.Events, len(streams[i]))
		}
	}
	for name, e := range map[string]*Engine{"source": eng, "destination": dst} {
		if v := invariant.CheckRouting(e.Routes(), placementMembers(e)); len(v) > 0 {
			t.Errorf("%s routing inconsistent after concurrent rebalancing: %v", name, v)
		}
		if st := e.RebalanceStats(); len(st.Violations) > 0 {
			t.Errorf("%s rebalance audit violations: %v", name, st.Violations)
		}
	}
}

// TestListingsSeeEachTenantOnce takes Tenants and Stats listings while
// a goroutine moves tenants between stripes the way a rebalance pass
// does. Every listing must hold each tenant exactly once: a listing
// that walks the stripes one lock at a time sees a tenant moved
// mid-walk on both stripes or on neither, and FlushAll, which flushes
// what Tenants lists, would then skip it.
func TestListingsSeeEachTenantOnce(t *testing.T) {
	const tenants, shards, listings = 16, 4, 2000
	eng := New(Config{Shards: shards, BatchSize: 8, Placement: PlacementBalanced,
		RebalanceEvery: 1 << 30, Rebuild: testRebuild})
	want := make([]string, tenants)
	for i := range want {
		want[i] = fmt.Sprintf("l%02d", i)
		addSpecTenant(t, eng, TenantSpec{ID: want[i], Algorithm: "random", N: 16, Seed: int64(i + 1)})
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var moved atomic.Int64
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			id := want[i%tenants]
			eng.rebalMu.Lock()
			from := eng.route(id)
			//lint:ignore lockorder moveTenantLocal requires rebalMu, as in Rebalance, and on a journaled engine a pass appends each move's record under it the same way
			_, err := eng.moveTenantLocal(id, from, (from+1+i%(shards-1))%shards)
			eng.rebalMu.Unlock()
			if err != nil {
				t.Errorf("move %s: %v", id, err)
				return
			}
			moved.Add(1)
		}
	}()
	for n := 0; n < listings; n++ {
		if got := eng.Tenants(); !reflect.DeepEqual(got, want) {
			t.Errorf("listing %d: Tenants() = %v, want each tenant once: %v", n, got, want)
			break
		}
		var got []string
		for _, st := range eng.Stats() {
			got = append(got, st.Tenant)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("listing %d: Stats() lists %v, want each tenant once: %v", n, got, want)
			break
		}
	}
	close(stop)
	wg.Wait()
	if moved.Load() == 0 {
		t.Error("no tenant moved while the listings ran")
	}
}

// skewFleet is the seeded zipf fleet of the skew gate: 48 A_Rand tenants
// on N=64 whose Poisson arrival counts decay as 6000/(rank+1)^0.8 with a
// floor of 200, so a few heavy tenants dominate a long light tail.
func skewFleet() ([]TenantSpec, map[string][]task.Event) {
	const tenants, n = 48, 64
	specs := make([]TenantSpec, tenants)
	streams := make(map[string][]task.Event, tenants)
	for i := range specs {
		seed := int64(1 + i)
		specs[i] = TenantSpec{ID: fmt.Sprintf("tenant-%02d", i), Algorithm: "random", N: n, Seed: seed}
		arrivals := max(int(6000/math.Pow(float64(i+1), 0.8)), 200)
		streams[specs[i].ID] = testStream(n, arrivals, seed)
	}
	return specs, streams
}

// skewConfig is the skew gate's engine: 1024-event batches, and for
// balanced placement a budget of one move per shard (d=1) with a pass
// every 32 batches.
func skewConfig(shards int, balanced bool, log *wal.Log) Config {
	cfg := Config{Shards: shards, BatchSize: 1024, Journal: log, Rebuild: testRebuild}
	if balanced {
		cfg.Placement, cfg.RebalanceD, cfg.RebalanceEvery = PlacementBalanced, 1, 32
	}
	return cfg
}

// driveSkew ingests the streams as an interleaved fleet of clients: in
// each of 12 rounds every tenant submits one volume-proportional burst
// (a zipf fleet is zipf in burst size too, floor 16 events), and every
// 4 rounds the fleet flushes on a deadline, the way latency-bound
// clients force results out. The round-robin schedule is what
// concurrent clients look like from a shard's queue — every tenant's
// residue is present when its neighbours submit — but deterministic, so
// the backlog compares placements instead of scheduler luck.
func driveSkew(t testing.TB, eng *Engine, specs []TenantSpec, streams map[string][]task.Event) {
	t.Helper()
	const bursts, minBurst, flushEvery = 12, 16, 4
	for round := 0; round < bursts; round++ {
		for _, spec := range specs {
			evs := streams[spec.ID]
			burst := max((len(evs)+bursts-1)/bursts, minBurst)
			off := round * burst
			if off >= len(evs) {
				continue
			}
			if err := eng.Submit(spec.ID, evs[off:min(off+burst, len(evs))]...); err != nil {
				t.Fatalf("submit %s: %v", spec.ID, err)
			}
		}
		if (round+1)%flushEvery == 0 {
			for _, spec := range specs {
				if err := eng.Flush(spec.ID); err != nil {
					t.Fatalf("flush %s: %v", spec.ID, err)
				}
			}
		}
	}
	if err := eng.FlushAll(); err != nil {
		t.Fatal(err)
	}
}

// resetShardPeaks starts a fresh peak-backlog measurement window: every
// stripe's PeakQueued high-water restarts from its current backlog. It
// takes no lock: the ledgers are atomics, and the skew gate calls it
// between phases that one goroutine drives, so no backlog moves.
func resetShardPeaks(e *Engine) {
	for _, s := range e.shards {
		s.peakQueued.Store(s.queued.Load() + s.inbound.Load())
	}
}

// TestBalancedPlacementBeatsHashOnSkew gates what rebalancing buys on
// the zipf fleet. On 8 shards, each placement ingests a warm-up third
// of every stream (feeding the balanced placer's load estimates), runs
// 8 forced passes so routing converges, restarts the peak-backlog
// window, and ingests the rest; the balanced hot shard's peak backlog
// must be strictly below hash placement's. Loads are event counts, so
// the comparison is deterministic. A journaled balanced run over the
// whole fleet, on 6 shards as well as 8, must then pass its audits and
// recover the exact pre-close routing table by replaying its TypeMove
// records.
func TestBalancedPlacementBeatsHashOnSkew(t *testing.T) {
	specs, streams := skewFleet()
	warm := make(map[string][]task.Event, len(streams))
	rest := make(map[string][]task.Event, len(streams))
	for id, evs := range streams {
		cut := len(evs) / 3
		warm[id], rest[id] = evs[:cut], evs[cut:]
	}
	hotPeak := func(balanced bool) (int, RebalanceStats) {
		eng := New(skewConfig(8, balanced, nil))
		for _, spec := range specs {
			addSpecTenant(t, eng, spec)
		}
		driveSkew(t, eng, specs, warm)
		for i := 0; i < 8; i++ {
			if _, err := eng.Rebalance(); err != nil {
				t.Fatal(err)
			}
		}
		// Scope the peak to the measured phase: the warm-up stampede,
		// before routing converges, would set both placements' high-water
		// identically.
		resetShardPeaks(eng)
		driveSkew(t, eng, specs, rest)
		peak := 0
		for _, st := range eng.ShardStats() {
			peak = max(peak, st.PeakQueued)
		}
		return peak, eng.RebalanceStats()
	}
	hash, _ := hotPeak(false)
	balanced, rs := hotPeak(true)
	t.Logf("hot-shard peak queue: hash %d, balanced %d; %d passes, %d moves", hash, balanced, rs.Passes, rs.Moves)
	if balanced >= hash {
		t.Errorf("balanced hot-shard peak queue %d, want strictly below hash's %d", balanced, hash)
	}
	if len(rs.Violations) > 0 {
		t.Errorf("rebalance audit: %d violations, first: %s", len(rs.Violations), rs.Violations[0])
	}

	for _, shards := range []int{6, 8} {
		t.Run(fmt.Sprintf("journaled/shards=%d", shards), func(t *testing.T) {
			dir := t.TempDir()
			log, err := wal.Open(dir, wal.Options{Sync: wal.SyncNever})
			if err != nil {
				t.Fatal(err)
			}
			eng := New(skewConfig(shards, true, log))
			for _, spec := range specs {
				addSpecTenant(t, eng, spec)
			}
			driveSkew(t, eng, specs, streams)
			if v := eng.RebalanceStats().Violations; len(v) > 0 {
				t.Errorf("rebalance audit: %d violations, first: %s", len(v), v[0])
			}
			want := eng.Routes()
			if err := log.Close(); err != nil {
				t.Fatal(err)
			}
			rec, err := Recover(skewConfig(shards, true, nil), dir, wal.Options{Sync: wal.SyncNever})
			if err != nil {
				t.Fatalf("Recover: %v", err)
			}
			defer rec.Journal().Close()
			if got := rec.Routes(); !reflect.DeepEqual(got, want) {
				t.Errorf("recovered routing table differs:\n  before: %v\n  after:  %v", want, got)
			}
			replayed := rec.RecoveryStats().MovesReplayed
			t.Logf("journaled balanced run on %d shards: %d moves replayed", shards, replayed)
			if replayed < 1 {
				t.Errorf("MovesReplayed = %d, want >= 1", replayed)
			}
		})
	}
}
