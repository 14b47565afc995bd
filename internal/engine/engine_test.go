package engine

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"testing"

	"partalloc/internal/core"
	"partalloc/internal/errs"
	"partalloc/internal/fault"
	"partalloc/internal/sim"
	"partalloc/internal/task"
	"partalloc/internal/topology"
	"partalloc/internal/tree"
	"partalloc/internal/wal"
	"partalloc/internal/workload"
)

// tenantOpts converts a possibly-nil schedule into the options-form
// AddTenant arguments used throughout the tables below.
func tenantOpts(s *fault.Schedule) []TenantOption {
	if s == nil {
		return nil
	}
	return []TenantOption{WithTenantFaults(s)}
}

// testTenant pairs a tenant ID with a factory so the engine and the
// serial reference each get a fresh allocator of the same configuration.
type testTenant struct {
	id     string
	make   func(m *tree.Machine) core.Allocator
	n      int
	faults *fault.Schedule
}

func testFleet(t *testing.T) []testTenant {
	t.Helper()
	sched := fault.Random(fault.RandomConfig{N: 64, Events: 1500, Failures: 3, Seed: 7})
	return []testTenant{
		{id: "acme", n: 64, make: func(m *tree.Machine) core.Allocator { return core.NewBasic(m) }},
		{id: "burrow", n: 64, make: func(m *tree.Machine) core.Allocator { return core.NewPeriodic(m, 2, core.DecreasingSize) }},
		{id: "corvid", n: 32, make: func(m *tree.Machine) core.Allocator { return core.NewLazy(m, 1, core.DecreasingSize) }},
		{id: "dynamo", n: 128, make: func(m *tree.Machine) core.Allocator { return core.NewRandom(m, 42) }},
		{id: "ember", n: 64, make: func(m *tree.Machine) core.Allocator { return core.NewGreedy(m) }},
		{id: "fjord", n: 64, make: func(m *tree.Machine) core.Allocator { return core.NewPeriodic(m, 3, core.DecreasingSize) }, faults: &sched},
	}
}

func testStream(n, arrivals int, seed int64) []task.Event {
	return workload.Poisson(workload.Config{N: n, Arrivals: arrivals, Seed: seed}).Events
}

// TestReplayMatchesSerialSimulate is the engine-level equivalence gate:
// batched, sharded ingestion must leave every tenant's allocator in the
// exact state a serial sim.Run pass produces — same PE loads, same
// MaxLoad, same active set, same ReallocStats, same fault count. Two
// tenants run on a hypercube host, one of them faulted, and their hop
// ledgers must match the serial run's too. The audited input applies
// its 97-event batches one event at a time, so its PeakLoad is exact.
func TestReplayMatchesSerialSimulate(t *testing.T) {
	hosted := map[string]bool{"burrow": true, "fjord": true}
	for _, in := range []struct {
		batch int
		audit bool
	}{{1, false}, {97, false}, {256, false}, {97, true}} {
		batch := in.batch
		fleet := testFleet(t)
		eng := New(Config{Shards: 3, BatchSize: batch, Audit: in.audit})
		streams := make(map[string][]task.Event)
		engAllocs := make(map[string]core.Allocator)
		hosts := make(map[string]*topology.Host)
		for i, tt := range fleet {
			m := tree.MustNew(tt.n)
			a := tt.make(m)
			engAllocs[tt.id] = a
			opts := tenantOpts(tt.faults)
			if hosted[tt.id] {
				h, err := topology.NewHostNamed("hypercube", tt.n)
				if err != nil {
					t.Fatal(err)
				}
				hosts[tt.id] = h
				opts = append(opts, WithTenantHost(h))
			}
			if err := eng.AddTenant(tt.id, a, opts...); err != nil {
				t.Fatal(err)
			}
			streams[tt.id] = testStream(tt.n, 700+50*i, int64(i+1))
		}

		if err := eng.Replay(context.Background(), streams); err != nil {
			t.Fatalf("batch %d: Replay: %v", batch, err)
		}

		for _, tt := range fleet {
			ref := tt.make(tree.MustNew(tt.n))
			opt := sim.Options{Host: hosts[tt.id]}
			if tt.faults != nil {
				opt.Faults = tt.faults.Source()
			}
			want := sim.Run(ref, task.Sequence{Events: streams[tt.id]}, opt)

			st, err := eng.TenantStats(tt.id)
			if err != nil {
				t.Fatal(err)
			}
			if st.Events != int64(len(streams[tt.id])) {
				t.Errorf("batch %d, %s: applied %d of %d events", batch, tt.id, st.Events, len(streams[tt.id]))
			}
			if got := engAllocs[tt.id].PELoads(); !reflect.DeepEqual(got, ref.PELoads()) {
				t.Errorf("batch %d, %s: engine PE loads diverge from serial run", batch, tt.id)
			}
			if st.MaxLoad != want.FinalLoad {
				t.Errorf("batch %d, %s: MaxLoad = %d, serial FinalLoad = %d", batch, tt.id, st.MaxLoad, want.FinalLoad)
			}
			if st.LStar != want.LStar {
				t.Errorf("batch %d, %s: LStar = %d, want %d", batch, tt.id, st.LStar, want.LStar)
			}
			if st.Active != ref.Active() {
				t.Errorf("batch %d, %s: Active = %d, want %d", batch, tt.id, st.Active, ref.Active())
			}
			if !reflect.DeepEqual(st.Realloc, want.Realloc) {
				t.Errorf("batch %d, %s: ReallocStats = %+v, want %+v", batch, tt.id, st.Realloc, want.Realloc)
			}
			if st.FaultEvents != want.FaultEvents {
				t.Errorf("batch %d, %s: FaultEvents = %d, want %d", batch, tt.id, st.FaultEvents, want.FaultEvents)
			}
			if st.MigHops != want.MigHops || st.ForcedHops != want.ForcedHops || st.Topology != want.Topology {
				t.Errorf("batch %d, %s: hops %d/%d on %q, serial %d/%d on %q", batch, tt.id,
					st.MigHops, st.ForcedHops, st.Topology, want.MigHops, want.ForcedHops, want.Topology)
			}
			if hosted[tt.id] && (want.MigHops == 0 || (tt.faults != nil && want.ForcedHops == 0)) {
				t.Errorf("%s: the serial run priced no hops (%d/%d), so the comparison shows nothing",
					tt.id, want.MigHops, want.ForcedHops)
			}
			// Single-event batches and audited ones sample every state,
			// so the engine's peak must equal the serial peak.
			if (batch == 1 || in.audit) && st.PeakLoad != want.MaxLoad {
				t.Errorf("batch %d, audit %v, %s: PeakLoad = %d, serial MaxLoad = %d",
					batch, in.audit, tt.id, st.PeakLoad, want.MaxLoad)
			}
			if len(st.Violations) != 0 {
				t.Errorf("batch %d, %s: audit violations %v", batch, tt.id, st.Violations)
			}
		}
	}
}

// TestSubmitMatchesReplay feeds the same streams through the incremental
// Submit path (odd-sized chunks, so queue boundaries and batch boundaries
// disagree) and through one-shot Replay. On different configurations the
// two must reach the same final state. On one bounded queue (MaxQueue
// below BatchSize, so batches shrink to the bound) they must agree on the
// whole canonical ledger, batch count included.
func TestSubmitMatchesReplay(t *testing.T) {
	bounded := Config{Shards: 2, BatchSize: 16, MaxQueue: 8}
	for _, in := range []struct {
		name      string
		submit    Config
		replay    Config
		canonical bool
	}{
		{"batch-64-vs-256", Config{Shards: 2, BatchSize: 64}, Config{Shards: 5, BatchSize: 256}, false},
		{"bounded-queue", bounded, bounded, true},
	} {
		t.Run(in.name, func(t *testing.T) {
			fleet := testFleet(t)
			a, b := New(in.submit), New(in.replay)
			streams := make(map[string][]task.Event)
			aAllocs := make(map[string]core.Allocator)
			bAllocs := make(map[string]core.Allocator)
			for i, tt := range fleet {
				aAllocs[tt.id] = tt.make(tree.MustNew(tt.n))
				bAllocs[tt.id] = tt.make(tree.MustNew(tt.n))
				if err := a.AddTenant(tt.id, aAllocs[tt.id], tenantOpts(tt.faults)...); err != nil {
					t.Fatal(err)
				}
				if err := b.AddTenant(tt.id, bAllocs[tt.id], tenantOpts(tt.faults)...); err != nil {
					t.Fatal(err)
				}
				streams[tt.id] = testStream(tt.n, 600, int64(i+10))
			}

			for _, tt := range fleet {
				evs := streams[tt.id]
				for off := 0; off < len(evs); off += 17 {
					if err := a.Submit(tt.id, evs[off:min(off+17, len(evs))]...); err != nil {
						t.Fatal(err)
					}
				}
			}
			if err := a.FlushAll(); err != nil {
				t.Fatal(err)
			}
			if err := b.Replay(context.Background(), streams); err != nil {
				t.Fatal(err)
			}

			for _, tt := range fleet {
				if !reflect.DeepEqual(aAllocs[tt.id].PELoads(), bAllocs[tt.id].PELoads()) {
					t.Errorf("%s: Submit path and Replay path disagree on PE loads", tt.id)
				}
				sa, _ := a.TenantStats(tt.id)
				sb, _ := b.TenantStats(tt.id)
				if sa.Events != sb.Events || sa.MaxLoad != sb.MaxLoad || !reflect.DeepEqual(sa.Realloc, sb.Realloc) {
					t.Errorf("%s: Submit stats %+v disagree with Replay stats %+v", tt.id, sa, sb)
				}
				if !in.canonical {
					continue
				}
				if ca, cb := CanonicalStats(sa), CanonicalStats(sb); !bytes.Equal(ca, cb) {
					t.Errorf("%s: canonical ledgers differ:\n  submit: %s\n  replay: %s", tt.id, ca, cb)
				}
			}
		})
	}
}

// testJournal opens a SyncNever journal in a fresh temp directory and
// closes it when the test ends.
func testJournal(t *testing.T) *wal.Log {
	t.Helper()
	log, err := wal.Open(t.TempDir(), wal.Options{Sync: wal.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { log.Close() })
	return log
}

// TestSubmitReusesQueue checks that a warm ingest call allocates
// nothing. A tenant's queue keeps its array when a batch or a Flush
// drains it, and a journaled call encodes its record into the tenant's
// scratch buffer, which the log frames in place into its own. A 1½-batch
// input alternates between applying a batch straight from the caller's
// slice and queueing the half-batch tail, and topping that tail up to a
// batch before applying the rest, so the top-up must keep the array too.
// Each input averages under one allocation per measured body, where a
// new queue array or record buffer per call would cost at least one.
func TestSubmitReusesQueue(t *testing.T) {
	const batch = 64
	// A full batch drains through the batch trigger; a half batch waits in
	// the queue for the Flush.
	for _, tc := range []struct {
		name             string
		journaled, flush bool
		size             int
	}{
		{"unjournaled/submit", false, false, batch},
		{"unjournaled/submit+flush", false, true, batch / 2},
		{"unjournaled/top-up", false, false, 3 * batch / 2},
		{"journaled/submit", true, false, batch},
		{"journaled/submit+flush", true, true, batch / 2},
		{"journaled/top-up", true, false, 3 * batch / 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Config{BatchSize: batch, Rebuild: testRebuild}
			if tc.journaled {
				cfg.Journal = testJournal(t)
			}
			eng := New(cfg)
			addSpecTenant(t, eng, TenantSpec{ID: "t", Algorithm: "random", N: 64, Seed: 1})
			size := tc.size
			// The first half of the burst arrives and the second half
			// departs the same tasks, so it can be submitted again and
			// again.
			evs := make([]task.Event, size)
			for i := range size / 2 {
				id := task.ID(i + 1)
				evs[i] = task.Event{Kind: task.Arrive, Task: id, Size: 1}
				evs[i+size/2] = task.Event{Kind: task.Depart, Task: id, Size: 1}
			}
			var runs int64
			run := func() {
				runs++
				if err := eng.Submit("t", evs...); err != nil {
					t.Fatal(err)
				}
				if !tc.flush {
					return
				}
				if err := eng.Flush("t"); err != nil {
					t.Fatal(err)
				}
			}
			run()
			if avg := testing.AllocsPerRun(200, run); avg >= 1 {
				t.Errorf("allocates %v objects per run, want < 1", avg)
			}
			// Without a Flush, the events past the last full batch wait in
			// the queue.
			want := runs * int64(size)
			if !tc.flush {
				want -= want % batch
			}
			if st, _ := eng.TenantStats("t"); st.Events != want {
				t.Errorf("%d events applied, want %d", st.Events, want)
			}
		})
	}
}

// TestAuditModeCleanRun checks that the per-shard invariant audit passes
// on healthy algorithms and still matches the serial reference.
func TestAuditModeCleanRun(t *testing.T) {
	fleet := testFleet(t)
	eng := New(Config{Shards: 2, BatchSize: 128, Audit: true})
	streams := make(map[string][]task.Event)
	for i, tt := range fleet {
		if err := eng.AddTenant(tt.id, tt.make(tree.MustNew(tt.n)), tenantOpts(tt.faults)...); err != nil {
			t.Fatal(err)
		}
		streams[tt.id] = testStream(tt.n, 400, int64(i+20))
	}
	if err := eng.Replay(context.Background(), streams); err != nil {
		t.Fatal(err)
	}
	for _, st := range eng.Stats() {
		if len(st.Violations) != 0 {
			t.Errorf("%s: audit found %d violations; first: %v", st.Tenant, len(st.Violations), st.Violations[0])
		}
		if st.Events == 0 {
			t.Errorf("%s: no events applied under audit", st.Tenant)
		}
	}
}

// TestPoisoningSurfacesSentinels drives a tenant into capacity exhaustion
// and checks that the allocator's ErrMachineFull panic comes back as a
// returned error chain — ErrTenantPoisoned wrapping the sentinel — and
// that the tenant stays poisoned afterwards.
func TestPoisoningSurfacesSentinels(t *testing.T) {
	eng := New(Config{BatchSize: 4})
	m := tree.MustNew(2)
	sched := &fault.Schedule{Events: []fault.Event{
		{At: 0, Kind: fault.FailPE, PE: 0},
		{At: 0, Kind: fault.FailPE, PE: 1},
	}}
	if err := eng.AddTenant("doomed", core.NewBasic(m), WithTenantFaults(sched)); err != nil {
		t.Fatal(err)
	}

	err := eng.Replay(context.Background(), map[string][]task.Event{
		"doomed": {{Kind: task.Arrive, Task: 1, Size: 1}},
	})
	if !errors.Is(err, ErrTenantPoisoned) {
		t.Fatalf("Replay error %v is not ErrTenantPoisoned", err)
	}
	if !errors.Is(err, errs.ErrMachineFull) {
		t.Fatalf("Replay error %v does not wrap ErrMachineFull", err)
	}

	// Every later operation reports the same poisoned state and cause.
	if err := eng.Submit("doomed", task.Event{Kind: task.Arrive, Task: 2, Size: 1}); !errors.Is(err, ErrTenantPoisoned) || !errors.Is(err, errs.ErrMachineFull) {
		t.Errorf("Submit after poisoning: %v", err)
	}
	if err := eng.Err("doomed"); !errors.Is(err, errs.ErrMachineFull) {
		t.Errorf("Err after poisoning: %v", err)
	}
	// The rest of the engine keeps working.
	if err := eng.AddTenant("healthy", core.NewBasic(tree.MustNew(8))); err != nil {
		t.Fatal(err)
	}
	if err := eng.Submit("healthy", task.Event{Kind: task.Arrive, Task: 1, Size: 2}); err != nil {
		t.Fatal(err)
	}
	if err := eng.Flush("healthy"); err != nil {
		t.Fatal(err)
	}
}

// TestDuplicateArrivalPoisons checks the misuse path: a duplicate task ID
// panic becomes ErrDuplicateTask on the error chain.
func TestDuplicateArrivalPoisons(t *testing.T) {
	eng := New(Config{BatchSize: 8})
	if err := eng.AddTenant("t", core.NewGreedy(tree.MustNew(8))); err != nil {
		t.Fatal(err)
	}
	err := eng.Replay(context.Background(), map[string][]task.Event{"t": {
		{Kind: task.Arrive, Task: 1, Size: 2},
		{Kind: task.Arrive, Task: 1, Size: 2},
	}})
	if !errors.Is(err, ErrTenantPoisoned) || !errors.Is(err, errs.ErrDuplicateTask) {
		t.Errorf("duplicate arrival error chain = %v", err)
	}
}

func TestTenantRegistry(t *testing.T) {
	eng := New(Config{})
	m := tree.MustNew(4)
	if err := eng.AddTenant("a", core.NewBasic(m)); err != nil {
		t.Fatal(err)
	}
	if err := eng.AddTenant("a", core.NewBasic(m)); !errors.Is(err, ErrDuplicateTenant) {
		t.Errorf("duplicate AddTenant: %v", err)
	}
	if err := eng.Submit("ghost"); !errors.Is(err, ErrUnknownTenant) {
		t.Errorf("Submit to unknown tenant: %v", err)
	}
	if _, err := eng.TenantStats("ghost"); !errors.Is(err, ErrUnknownTenant) {
		t.Errorf("TenantStats of unknown tenant: %v", err)
	}
	if err := eng.Replay(context.Background(), map[string][]task.Event{"ghost": nil}); !errors.Is(err, ErrUnknownTenant) {
		t.Errorf("Replay of unknown tenant: %v", err)
	}
	if err := eng.AddTenant("nil", nil); err == nil {
		t.Error("nil allocator accepted")
	}
	sched := &fault.Schedule{Events: []fault.Event{{At: 0, Kind: fault.FailPE, PE: 0}}}
	if err := eng.AddTenant("rand", core.NewRandom(m, 1), WithTenantFaults(sched)); err == nil {
		t.Error("fault schedule accepted on a non-fault-tolerant allocator")
	}
	want := []string{"a"}
	if got := eng.Tenants(); !reflect.DeepEqual(got, want) {
		t.Errorf("Tenants() = %v, want %v", got, want)
	}
}

// TestReplayContextCancellation checks that a nil context is refused and
// that a pre-cancelled one stops the replay before any event is applied
// and reports ctx.Err().
func TestReplayContextCancellation(t *testing.T) {
	eng := New(Config{BatchSize: 32})
	if err := eng.AddTenant("t", core.NewBasic(tree.MustNew(16))); err != nil {
		t.Fatal(err)
	}
	var nilCtx context.Context
	if err := eng.Replay(nilCtx, map[string][]task.Event{"t": testStream(16, 500, 1)}); err == nil {
		t.Error("Replay accepted a nil context")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := eng.Replay(ctx, map[string][]task.Event{"t": testStream(16, 500, 1)})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Replay with cancelled context: %v", err)
	}
	st, _ := eng.TenantStats("t")
	if st.Events != 0 {
		t.Errorf("applied %d events under a pre-cancelled context", st.Events)
	}
}
