package engine

import (
	"fmt"
	"math"
	"os"
	"os/exec"
	"reflect"
	"sync"
	"testing"
	"time"

	"partalloc/internal/invariant"
	"partalloc/internal/task"
	"partalloc/internal/wal"
)

// placementMembers snapshots tenant→shard membership under every shard
// lock (index order, reverse release), the same way auditPlacement does.
func placementMembers(e *Engine) map[string]int {
	for _, s := range e.shards {
		s.mu.Lock()
	}
	members := make(map[string]int)
	for i, s := range e.shards {
		for id := range s.tenants {
			members[id] = i
		}
	}
	for i := len(e.shards) - 1; i >= 0; i-- {
		e.shards[i].mu.Unlock()
	}
	//lint:ignore lockorder every shard lock taken by the loop above is released by the reverse loop; the analyzer cannot pair loop-acquired locks
	return members
}

// TestBalancedPlacerDeterminism is the placement twin of the engine's
// replay gate: two placers built the same way and fed the same Place
// calls and load histories must plan the exact same move sequences and
// end with identical routing tables. Recovery depends on this — replay
// reproduces routes from journaled moves, so a nondeterministic planner
// would make the journal's moves meaningless on the next process. Each
// plan must also keep the contract: its moves come heaviest first, and
// once they are applied, the same loads plan no further move.
func TestBalancedPlacerDeterminism(t *testing.T) {
	const shards, d, tenants = 8, 1, 12
	mk := func() *BalancedPlacer {
		p := NewBalancedPlacer(shards)
		for i := 0; i < tenants; i++ {
			p.Place(fmt.Sprintf("t%02d", i))
		}
		return p
	}
	a, b := mk(), mk()
	if !reflect.DeepEqual(a.Routes(), b.Routes()) {
		t.Fatalf("initial routes diverge:\n  a: %v\n  b: %v", a.Routes(), b.Routes())
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
			a.Reroute(mv.Tenant, mv.To)
			b.Reroute(mv.Tenant, mv.To)
		}
		if again := a.Plan(loads, budget); len(again) > 0 {
			t.Fatalf("pass %d: the applied plan's loads plan %d more moves: %v", pass, len(again), again)
		}
	}
	if planned == 0 {
		t.Fatal("the load history planned no move")
	}
	if !reflect.DeepEqual(a.Routes(), b.Routes()) {
		t.Fatalf("final routes diverge:\n  a: %v\n  b: %v", a.Routes(), b.Routes())
	}
}

// TestBalancedPlacerPlace pins where a new tenant lands: on the shard
// with the fewest routed tenants, the lowest index on ties, so a
// removed tenant's shard is the first one refilled. Placing a routed
// tenant again keeps its route.
func TestBalancedPlacerPlace(t *testing.T) {
	p := NewBalancedPlacer(6)
	place := func(id string, want int) {
		t.Helper()
		if got := p.Place(id); got != want {
			t.Fatalf("Place(%s) = shard %d, want %d (routes %v)", id, got, want, p.Routes())
		}
	}
	// One tenant per shard in index order, then the ties from shard 0.
	for i := 0; i < 9; i++ {
		place(fmt.Sprintf("t%d", i), i%6)
	}
	place("t4", 4)
	// Shard 4 is emptied, so it is refilled before shards 3 and 5, which
	// hold one tenant each.
	p.Remove("t4")
	place("t9", 4)
	place("t10", 3)
	// Counts follow the routes: rerouting t10 off shard 3 ties it with
	// shard 4 for the fewest tenants, and the lower index wins.
	p.Reroute("t10", 5)
	place("t11", 3)
	place("t12", 4)
}

// TestBalancedPlacerPlanSticky pins the stickiness rule: a routed
// tenant moves only when its shard's running load exceeds the
// least-loaded shard's by more than the tenant's own load, and a budget
// short of the plan keeps its heaviest moves.
func TestBalancedPlacerPlanSticky(t *testing.T) {
	p := NewBalancedPlacer(3)
	for _, id := range []string{"a", "b", "c"} {
		p.Reroute(id, 2)
	}
	p.Reroute("d", 1)
	loads := map[string]float64{"a": 8, "b": 4, "c": 2, "d": 1}
	// a stays on shard 2 although shard 0 is emptier: 0 ≤ 0+8. b and c
	// leave it (8 > 0+4, 8 > 0+2) for shards 0 and 1, and d stays on 1.
	want := []Move{{Tenant: "b", From: 2, To: 0}, {Tenant: "c", From: 2, To: 1}}
	if got := p.Plan(loads, 3); !reflect.DeepEqual(got, want) {
		t.Errorf("Plan = %v, want %v", got, want)
	}
	if got := p.Plan(loads, 1); !reflect.DeepEqual(got, want[:1]) {
		t.Errorf("Plan with budget 1 = %v, want %v", got, want[:1])
	}
}

// TestMoveTenantRoutesThroughPlacer is the regression gate for the
// cross-engine move path: MoveTenant must retire the source route via
// Placer.Remove and assign the destination route via Placer.Place, so
// neither engine's routing table can disagree with its shard membership
// after the move.
func TestMoveTenantRoutesThroughPlacer(t *testing.T) {
	cfg := Config{Shards: 4, BatchSize: 4, Placement: PlacementBalanced,
		RebalanceD: 1, RebalanceEvery: 1 << 30, Rebuild: testRebuild}
	src, dst := New(cfg), New(cfg)
	for i := 0; i < 3; i++ {
		addSpecTenant(t, src, TenantSpec{ID: fmt.Sprintf("src%d", i), Algorithm: "basic", N: 16})
		addSpecTenant(t, dst, TenantSpec{ID: fmt.Sprintf("dst%d", i), Algorithm: "basic", N: 16})
	}
	addSpecTenant(t, src, TenantSpec{ID: "mover", Algorithm: "basic", N: 16})
	if _, ok := src.placer.Lookup("mover"); !ok {
		t.Fatal("tenant not routed at the source before the move")
	}
	if err := src.Submit("mover", arrivals(1, 6, 1)...); err != nil {
		t.Fatal(err)
	}

	if err := src.MoveTenant("mover", dst); err != nil {
		t.Fatalf("MoveTenant: %v", err)
	}

	if _, ok := src.placer.Lookup("mover"); ok {
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
			tn := eng.shardAt(from).tenants["t"]
			alloc, est := tn.alloc, tn.rebalEst
			if est == 0 {
				t.Fatal("rebalance pass left no load estimate to carry")
			}
			before, _ := eng.TenantStats("t")
			moveToOtherStripe(t, eng, "t")
			got := eng.shardAt(1 - from).tenants["t"]
			if got != tn {
				t.Fatalf("destination holds tenant %p, want the moved tenant %p", got, tn)
			}
			if got.alloc != alloc {
				t.Fatal("the move replaced the tenant's allocator")
			}
			if got.rebalEst != est {
				t.Errorf("load estimate %v after the move, want %v", got.rebalEst, est)
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
// goroutine. Run under -race this is the placement layer's memory-model
// gate; the assertions close the loop on conservation (no event lost or
// duplicated by a mid-ingest move) and routing consistency.
func TestConcurrentSubmitDuringRebalance(t *testing.T) {
	eng := New(Config{Shards: 4, BatchSize: 16, MaxQueue: 256, Overload: Block,
		Placement: PlacementBalanced, RebalanceD: 2, RebalanceEvery: 2, Rebuild: testRebuild})
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
	if v := invariant.CheckRouting(eng.Routes(), placementMembers(eng)); len(v) > 0 {
		t.Errorf("routing inconsistent after concurrent rebalancing: %v", v)
	}
	if st := eng.RebalanceStats(); len(st.Violations) > 0 {
		t.Errorf("rebalance audit violations: %v", st.Violations)
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
func driveSkew(t *testing.T, eng *Engine, specs []TenantSpec, streams map[string][]task.Event) {
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
// stripe's PeakQueued high-water restarts from its current backlog.
func resetShardPeaks(e *Engine) {
	for _, s := range e.shards {
		s.mu.Lock()
		s.peakQueued = s.backlog()
		s.mu.Unlock()
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
