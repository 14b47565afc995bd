package partalloc_test

import (
	"bytes"
	"context"
	"errors"
	"testing"

	"partalloc"
)

// TestEngineJournalRecoverRoundTrip is the facade-level crash-recovery
// gate: a journaling engine with option-built tenants (reallocation
// knobs, seeds, topology, faults) is closed mid-state — queued events
// and a poisoned tenant included — and RecoverEngine must reproduce
// every tenant ledger byte-for-byte under CanonicalEngineStats.
func TestEngineJournalRecoverRoundTrip(t *testing.T) {
	dir := t.TempDir()
	eng, err := partalloc.NewEngine(partalloc.WithBatchSize(32),
		partalloc.WithJournal(dir), partalloc.WithMaxQueue(64))
	if err != nil {
		t.Fatal(err)
	}

	m := partalloc.MustNewMachine(64)
	top, err := partalloc.NewTopology("mesh", 64)
	if err != nil {
		t.Fatal(err)
	}
	sched := partalloc.FaultSchedule{Events: []partalloc.FaultEvent{
		{At: 10, Kind: partalloc.FailPE, PE: 3},
		{At: 200, Kind: partalloc.RecoverPE, PE: 3},
	}}
	type tenantCfg struct {
		id   string
		algo partalloc.Algorithm
		opts []partalloc.Option
	}
	tenants := []tenantCfg{
		{"mesh-faulty", partalloc.AlgoBasic, []partalloc.Option{partalloc.WithTopology(top), partalloc.WithFaults(sched)}},
		{"periodic", partalloc.AlgoPeriodic, []partalloc.Option{partalloc.WithD(2), partalloc.WithOrder(partalloc.ArrivalOrder)}},
		{"random", partalloc.AlgoRandom, []partalloc.Option{partalloc.WithSeed(7)}},
		{"lazy", partalloc.AlgoLazy, []partalloc.Option{partalloc.WithD(1)}},
	}
	for i, tc := range tenants {
		if err := eng.AddTenant(tc.id, tc.algo, m, tc.opts...); err != nil {
			t.Fatal(err)
		}
		seq := partalloc.PoissonWorkload(partalloc.WorkloadConfig{N: 64, Arrivals: 400, Seed: int64(i + 1)})
		if err := eng.Submit(tc.id, seq.Events...); err != nil {
			t.Fatal(err)
		}
	}
	// One tenant flushed clean, the rest keep their queued remainders.
	if err := eng.Flush("random"); err != nil {
		t.Fatal(err)
	}
	// A poisoned tenant must survive recovery poisoned, cause intact.
	if err := eng.AddTenant("doomed", partalloc.AlgoGreedy, partalloc.MustNewMachine(4)); err != nil {
		t.Fatal(err)
	}
	dup := []partalloc.Event{
		{Kind: partalloc.EventArrive, Task: 1, Size: 2},
		{Kind: partalloc.EventArrive, Task: 1, Size: 2},
	}
	if err := eng.Submit("doomed", dup...); err != nil {
		t.Fatal(err)
	}
	if err := eng.Flush("doomed"); !errors.Is(err, partalloc.ErrTenantPoisoned) || !errors.Is(err, partalloc.ErrDuplicateTask) {
		t.Fatalf("poisoning flush: %v", err)
	}

	want := eng.Stats()
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}

	rec, err := partalloc.RecoverEngine(dir, partalloc.WithBatchSize(32), partalloc.WithMaxQueue(64))
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	got := rec.Stats()
	if len(got) != len(want) {
		t.Fatalf("recovered %d tenants, want %d", len(got), len(want))
	}
	for i := range want {
		w, g := partalloc.CanonicalEngineStats(want[i]), partalloc.CanonicalEngineStats(got[i])
		if !bytes.Equal(w, g) {
			t.Errorf("%s: recovered ledger diverges:\n  live: %s\n  rec:  %s", want[i].Tenant, w, g)
		}
	}
	if err := rec.Err("doomed"); !errors.Is(err, partalloc.ErrDuplicateTask) {
		t.Errorf("recovered poisoning cause: %v", err)
	}

	// The recovered engine ingests and journals onward.
	if err := rec.Submit("periodic", partalloc.Event{Kind: partalloc.EventArrive, Task: 1 << 30, Size: 1}); err != nil {
		t.Fatal(err)
	}
	if err := rec.FlushAll(); !errors.Is(err, partalloc.ErrTenantPoisoned) {
		// FlushAll hits doomed first alphabetically? Either way the only
		// acceptable failure is the reproduced poisoning.
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestEngineOverloadOptions exercises the overload surface through the
// facade: Shed rejects whole with ErrOverloaded, Block admits chunked.
func TestEngineOverloadOptions(t *testing.T) {
	shed, err := partalloc.NewEngine(partalloc.WithBatchSize(4),
		partalloc.WithMaxQueue(8), partalloc.WithOverloadPolicy(partalloc.OverloadShed))
	if err != nil {
		t.Fatal(err)
	}
	m := partalloc.MustNewMachine(16)
	if err := shed.AddTenant("t", partalloc.AlgoBasic, m); err != nil {
		t.Fatal(err)
	}
	big := make([]partalloc.Event, 10)
	for i := range big {
		big[i] = partalloc.Event{Kind: partalloc.EventArrive, Task: partalloc.TaskID(i + 1), Size: 1}
	}
	if err := shed.Submit("t", big...); !errors.Is(err, partalloc.ErrOverloaded) {
		t.Fatalf("Shed over bound: %v", err)
	}
	st, _ := shed.TenantStats("t")
	if st.ShedEvents != 10 || st.Events != 0 {
		t.Errorf("after shed: ShedEvents=%d Events=%d, want 10/0", st.ShedEvents, st.Events)
	}

	block, err := partalloc.NewEngine(partalloc.WithBatchSize(4),
		partalloc.WithMaxQueue(8), partalloc.WithOverloadPolicy(partalloc.OverloadBlock))
	if err != nil {
		t.Fatal(err)
	}
	if err := block.AddTenant("t", partalloc.AlgoBasic, m); err != nil {
		t.Fatal(err)
	}
	if err := block.Submit("t", big...); err != nil {
		t.Fatalf("Block over bound: %v", err)
	}
	if err := block.FlushAll(); err != nil {
		t.Fatal(err)
	}
	st, _ = block.TenantStats("t")
	if st.Events != 10 || st.ShedEvents != 0 {
		t.Errorf("Block applied %d events, shed %d; want 10/0", st.Events, st.ShedEvents)
	}
}

// TestEngineDegradeOptionThroughFacade checks OverloadDegrade end to end
// on a degradable tenant: a sub-nanosecond budget forces the controller
// up the ladder, and the transition ledger surfaces in the stats.
func TestEngineDegradeOptionThroughFacade(t *testing.T) {
	eng, err := partalloc.NewEngine(partalloc.WithBatchSize(64),
		partalloc.WithOverloadPolicy(partalloc.OverloadDegrade), partalloc.WithDegradeBudget(1))
	if err != nil {
		t.Fatal(err)
	}
	m := partalloc.MustNewMachine(64)
	if err := eng.AddTenant("t", partalloc.AlgoPeriodic, m, partalloc.WithD(1)); err != nil {
		t.Fatal(err)
	}
	seq := partalloc.PoissonWorkload(partalloc.WorkloadConfig{N: 64, Arrivals: 2000, Seed: 3})
	if err := eng.Replay(context.Background(), map[string][]partalloc.Event{"t": seq.Events}); err != nil {
		t.Fatal(err)
	}
	st, _ := eng.TenantStats("t")
	if st.DegradeLevel == 0 || len(st.Degrades) == 0 {
		t.Errorf("1ns budget never degraded: level=%d transitions=%d", st.DegradeLevel, len(st.Degrades))
	}
	if st.EffectiveD < 1 {
		t.Errorf("EffectiveD = %d on a degraded A_M tenant", st.EffectiveD)
	}
	if st.Events != int64(len(seq.Events)) {
		t.Errorf("degraded tenant applied %d of %d events", st.Events, len(seq.Events))
	}
}

// TestRecoverEngineRejectsConflictingJournal pins the strictness rule:
// WithJournal inside RecoverEngine may only repeat the directory, and a
// conflict is an invalid option like any other.
func TestRecoverEngineRejectsConflictingJournal(t *testing.T) {
	_, err := partalloc.RecoverEngine(t.TempDir(), partalloc.WithJournal("elsewhere"))
	if err == nil {
		t.Fatal("conflicting WithJournal accepted")
	}
	if !errors.Is(err, partalloc.ErrBadOption) {
		t.Errorf("conflicting WithJournal: error %v is not ErrBadOption", err)
	}
}
