package partalloc_test

import (
	"bytes"
	"reflect"
	"testing"

	"partalloc"
)

// snapshotEquivFleet adds the equivalence fleet to eng: all six paper
// algorithms, fault schedules on the deterministic reallocators, and
// mesh/hypercube hosts alongside the plain tree. Every engine in the
// equivalence test gets the identical fleet.
func snapshotEquivFleet(t *testing.T, eng *partalloc.Engine) {
	t.Helper()
	m := partalloc.MustNewMachine(64)
	mesh, err := partalloc.NewTopology("mesh", 64)
	if err != nil {
		t.Fatal(err)
	}
	hyper, err := partalloc.NewTopology("hypercube", 64)
	if err != nil {
		t.Fatal(err)
	}
	sched := partalloc.FaultSchedule{Events: []partalloc.FaultEvent{
		{At: 25, Kind: partalloc.FailPE, PE: 5},
		{At: 300, Kind: partalloc.RecoverPE, PE: 5},
		{At: 450, Kind: partalloc.FailPE, PE: 17},
	}}
	add := func(id string, algo partalloc.Algorithm, opts ...partalloc.Option) {
		t.Helper()
		if err := eng.AddTenant(id, algo, m, opts...); err != nil {
			t.Fatalf("AddTenant %s: %v", id, err)
		}
	}
	add("greedy", partalloc.AlgoGreedy)
	add("greedy-faulty", partalloc.AlgoGreedy, partalloc.WithFaults(sched))
	add("basic-mesh", partalloc.AlgoBasic, partalloc.WithTopology(mesh), partalloc.WithFaults(sched))
	add("constant", partalloc.AlgoConstant)
	add("periodic", partalloc.AlgoPeriodic, partalloc.WithD(2))
	add("lazy-hyper", partalloc.AlgoLazy, partalloc.WithD(1), partalloc.WithTopology(hyper))
	add("random", partalloc.AlgoRandom, partalloc.WithSeed(7))
}

// snapshotEquivTraffic drives the identical event streams into eng:
// per-tenant Poisson workloads, one tenant flushed clean, the rest left
// with queued remainders so recovery has to restore queues too.
func snapshotEquivTraffic(t *testing.T, eng *partalloc.Engine) {
	t.Helper()
	for i, id := range eng.Tenants() {
		seq := partalloc.PoissonWorkload(partalloc.WorkloadConfig{N: 64, Arrivals: 600, Seed: int64(i + 1)})
		if err := eng.Submit(id, seq.Events...); err != nil {
			t.Fatalf("Submit %s: %v", id, err)
		}
	}
	if err := eng.Flush("random"); err != nil {
		t.Fatal(err)
	}
}

// snapshotEquivSkewTraffic drives skewed traffic in rounds: tenant i
// submits a quarter of a 600·(i+1)-arrival Poisson stream per round, and
// a forced rebalance pass follows each round, so a balanced placer moves
// tenants between rounds and the journal carries TypeMove records.
func snapshotEquivSkewTraffic(t *testing.T, eng *partalloc.Engine) {
	t.Helper()
	const rounds = 4
	ids := eng.Tenants()
	streams := make([][]partalloc.Event, len(ids))
	for i := range ids {
		streams[i] = partalloc.PoissonWorkload(partalloc.WorkloadConfig{N: 64, Arrivals: rounds * 150 * (i + 1), Seed: int64(i + 1)}).Events
	}
	for r := 0; r < rounds; r++ {
		for i, id := range ids {
			evs := streams[i]
			if err := eng.Submit(id, evs[r*len(evs)/rounds:(r+1)*len(evs)/rounds]...); err != nil {
				t.Fatalf("Submit %s: %v", id, err)
			}
		}
		if _, err := eng.Rebalance(); err != nil {
			t.Fatalf("Rebalance: %v", err)
		}
	}
}

// TestSnapshotRecoveryEquivalence is the facade-level snapshot gate: the
// same fleet (all six algorithms, fault schedules, mesh and hypercube
// hosts) and the same traffic run three ways — uninterrupted, journaled
// with genesis snapshots only then recovered by replaying each tenant's
// whole tail, and journaled with WithSnapshotEvery then recovered from
// the latest snapshots plus tail — must yield byte-identical
// CanonicalEngineStats for every tenant and the same routing table. The
// balanced input adds rebalance moves, which recovery must replay.
func TestSnapshotRecoveryEquivalence(t *testing.T) {
	t.Run("hash", func(t *testing.T) { snapshotRecoveryEquivalence(t, snapshotEquivTraffic, false) })
	t.Run("balanced", func(t *testing.T) {
		snapshotRecoveryEquivalence(t, snapshotEquivSkewTraffic, true,
			partalloc.WithPlacement(partalloc.PlacementBalanced), partalloc.WithShards(4))
	})
}

// snapshotRecoveryEquivalence runs one input of the gate: traffic on an
// engine configured by placement; moves says the traffic must move
// tenants, so the journal has TypeMove records to replay.
func snapshotRecoveryEquivalence(t *testing.T, traffic func(*testing.T, *partalloc.Engine), moves bool, placement ...partalloc.EngineOption) {
	opts := func(extra ...partalloc.EngineOption) []partalloc.EngineOption {
		base := append([]partalloc.EngineOption{partalloc.WithBatchSize(32), partalloc.WithMaxQueue(64)}, placement...)
		return append(base, extra...)
	}

	// Uninterrupted reference: no journal at all.
	plain, err := partalloc.NewEngine(opts()...)
	if err != nil {
		t.Fatal(err)
	}
	snapshotEquivFleet(t, plain)
	traffic(t, plain)
	want := plain.Stats()
	if rs := plain.RebalanceStats(); moves && rs.Moves < 1 {
		t.Fatalf("uninterrupted run moved no tenant (rebalance stats %+v)", rs)
	}

	// Full-replay recovery: journal on, no snapshots past each tenant's
	// genesis snapshot (its registration record).
	replayDir := t.TempDir()
	full, err := partalloc.NewEngine(opts(partalloc.WithJournal(replayDir))...)
	if err != nil {
		t.Fatal(err)
	}
	snapshotEquivFleet(t, full)
	traffic(t, full)
	if err := full.Close(); err != nil {
		t.Fatal(err)
	}
	fullRec, err := partalloc.RecoverEngine(replayDir, opts()...)
	if err != nil {
		t.Fatalf("full-replay recovery: %v", err)
	}
	defer fullRec.Close()
	if rs, n := fullRec.RecoveryStats(), int64(len(fullRec.Tenants())); rs.SnapshotsRestored != n || rs.RecordsSkipped != 0 {
		t.Fatalf("genesis-only journal: restored %d snapshots and skipped %d records, want %d (one genesis per tenant) and 0",
			rs.SnapshotsRestored, rs.RecordsSkipped, n)
	}
	if rs := fullRec.RecoveryStats(); moves && rs.MovesReplayed < 1 {
		t.Fatalf("full-replay recovery replayed no move (stats %+v)", rs)
	}

	// Snapshot recovery: journal on, snapshots every 2 batches.
	snapDir := t.TempDir()
	snap, err := partalloc.NewEngine(opts(partalloc.WithJournal(snapDir), partalloc.WithSnapshotEvery(2))...)
	if err != nil {
		t.Fatal(err)
	}
	snapshotEquivFleet(t, snap)
	traffic(t, snap)
	if err := snap.Close(); err != nil {
		t.Fatal(err)
	}
	snapRec, err := partalloc.RecoverEngine(snapDir, opts(partalloc.WithSnapshotEvery(2))...)
	if err != nil {
		t.Fatalf("snapshot recovery: %v", err)
	}
	defer snapRec.Close()
	rs := snapRec.RecoveryStats()
	if rs.SnapshotsRestored == 0 {
		t.Fatalf("snapshot recovery restored no snapshots (stats %+v)", rs)
	}
	if rs.RecordsSkipped == 0 {
		t.Errorf("snapshot recovery skipped no records — it replayed covered history (stats %+v)", rs)
	}

	fullStats, snapStats := fullRec.Stats(), snapRec.Stats()
	if len(fullStats) != len(want) || len(snapStats) != len(want) {
		t.Fatalf("tenant counts: uninterrupted %d, full-replay %d, snapshot %d",
			len(want), len(fullStats), len(snapStats))
	}
	for i := range want {
		u := partalloc.CanonicalEngineStats(want[i])
		f := partalloc.CanonicalEngineStats(fullStats[i])
		s := partalloc.CanonicalEngineStats(snapStats[i])
		if !bytes.Equal(u, f) {
			t.Errorf("%s: full-replay recovery diverges from uninterrupted:\n  live: %s\n  rec:  %s",
				want[i].Tenant, u, f)
		}
		if !bytes.Equal(u, s) {
			t.Errorf("%s: snapshot recovery diverges from uninterrupted:\n  live: %s\n  rec:  %s",
				want[i].Tenant, u, s)
		}
	}

	routes := plain.Routes()
	if got := fullRec.Routes(); !reflect.DeepEqual(got, routes) {
		t.Errorf("full-replay recovery routes %v, uninterrupted %v", got, routes)
	}
	if got := snapRec.Routes(); !reflect.DeepEqual(got, routes) {
		t.Errorf("snapshot recovery routes %v, uninterrupted %v", got, routes)
	}

	// The snapshot-recovered engine keeps serving and snapshotting.
	if err := snapRec.Submit("greedy", partalloc.Event{Kind: partalloc.EventArrive, Task: 1 << 30, Size: 1}); err != nil {
		t.Fatal(err)
	}
	if err := snapRec.Flush("greedy"); err != nil {
		t.Fatal(err)
	}
}
