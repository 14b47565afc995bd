package engine

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"partalloc/internal/core"
	"partalloc/internal/fault"
	"partalloc/internal/task"
	"partalloc/internal/tree"
	"partalloc/internal/wal"
)

// walSegments lists the journal's segment indexes in dir, ascending.
func walSegments(t *testing.T, dir string) []int {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var idx []int
	for _, ent := range ents {
		if strings.HasSuffix(ent.Name(), ".wal") {
			i, err := strconv.Atoi(strings.TrimSuffix(ent.Name(), ".wal"))
			if err != nil {
				t.Fatalf("unexpected journal file %q", ent.Name())
			}
			idx = append(idx, i)
		}
	}
	sort.Ints(idx)
	return idx
}

// TestSnapshotRecoverMatchesUninterrupted is the snapshot analogue of
// TestRecoverMatchesUninterrupted: an engine snapshotting every 2
// batches — mixed algorithms, fault schedules, audit on, queued
// remainders — must recover with byte-identical CanonicalStats, while
// actually restoring from snapshots rather than replaying history.
func TestSnapshotRecoverMatchesUninterrupted(t *testing.T) {
	dir := t.TempDir()
	log, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Shards: 3, BatchSize: 16, Audit: true, Journal: log, Rebuild: testRebuild, SnapshotEvery: 2}
	eng := New(cfg)

	var sched bytes.Buffer
	fs := fault.Random(fault.RandomConfig{N: 64, Events: 300, Failures: 2, Seed: 5})
	if err := fault.WriteText(&sched, fs); err != nil {
		t.Fatal(err)
	}
	addSpecTenant(t, eng, TenantSpec{ID: "alpha", Algorithm: "basic", N: 16})
	addSpecTenant(t, eng, TenantSpec{ID: "perry", Algorithm: "periodic", N: 64, D: 2, DSet: true, Faults: sched.String()})
	addSpecTenant(t, eng, TenantSpec{ID: "rand", Algorithm: "random", N: 32, Seed: 42, SeedSet: true})
	addSpecTenant(t, eng, TenantSpec{ID: "lazy1", Algorithm: "lazy", N: 32, D: 1, DSet: true})

	for _, ev := range testStream(16, 300, 1) {
		if err := eng.Submit("alpha", ev); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng.Replay(context.Background(), map[string][]task.Event{"perry": testStream(64, 300, 2)}); err != nil {
		t.Fatal(err)
	}
	if err := eng.Submit("rand", testStream(32, 200, 7)...); err != nil {
		t.Fatal(err)
	}
	if err := eng.Submit("lazy1", testStream(32, 100, 3)...); err != nil {
		t.Fatal(err)
	}
	if err := eng.Flush("lazy1"); err != nil {
		t.Fatal(err)
	}

	want := eng.Stats()
	for _, st := range want {
		if len(st.Violations) != 0 {
			t.Fatalf("%s: live audit violations: %v", st.Tenant, st.Violations)
		}
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}

	rec, err := Recover(Config{Shards: 3, BatchSize: 16, Audit: true, Rebuild: testRebuild, SnapshotEvery: 2}, dir, wal.Options{})
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
	rs := rec.RecoveryStats()
	if rs.SnapshotsRestored != 4 {
		t.Errorf("SnapshotsRestored = %d, want 4 (one per tenant)", rs.SnapshotsRestored)
	}
	if rs.RecordsSkipped == 0 {
		t.Error("RecordsSkipped = 0: recovery replayed history a snapshot already covers")
	}
	if rs.RecordsReplayed >= rs.RecordsSkipped {
		t.Errorf("RecordsReplayed = %d ≥ RecordsSkipped = %d: recovery is not O(tail)", rs.RecordsReplayed, rs.RecordsSkipped)
	}
}

// TestSnapshotRecoverWithoutSegmentHeaders rewrites a rotated, compacted
// journal the way builds before segment headers wrote one: each
// segment's records framed with wal.AppendRecord and nothing else. Both
// journals must recover to the live engine's CanonicalStats, with the
// same recovery accounting.
func TestSnapshotRecoverWithoutSegmentHeaders(t *testing.T) {
	dir := t.TempDir()
	wopt := wal.Options{SegmentBytes: 1 << 10}
	log, err := wal.Open(dir, wopt)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Shards: 3, BatchSize: 16, Rebuild: testRebuild, SnapshotEvery: 2}
	live := cfg
	live.Journal = log
	eng := New(live)
	addSpecTenant(t, eng, TenantSpec{ID: "alpha", Algorithm: "basic", N: 16})
	addSpecTenant(t, eng, TenantSpec{ID: "rand", Algorithm: "random", N: 32, Seed: 42, SeedSet: true})
	addSpecTenant(t, eng, TenantSpec{ID: "lazy1", Algorithm: "lazy", N: 32, D: 1, DSet: true})
	if err := eng.Submit("alpha", testStream(16, 300, 1)...); err != nil {
		t.Fatal(err)
	}
	if err := eng.Submit("rand", testStream(32, 200, 7)...); err != nil {
		t.Fatal(err)
	}
	if err := eng.Submit("lazy1", testStream(32, 100, 3)...); err != nil {
		t.Fatal(err)
	}
	want := eng.Stats()
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	if segs := walSegments(t, dir); len(segs) < 3 || segs[0] == 1 {
		t.Fatalf("journal segments %v: want several, compacted", segs)
	}

	legacy := t.TempDir()
	frames := make(map[int][]byte)
	if err := wal.ReplayFrom(dir, 0, func(pos wal.Pos, rec wal.Record) error {
		frames[pos.Seg] = wal.AppendRecord(frames[pos.Seg], rec)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for seg, data := range frames {
		if err := os.WriteFile(filepath.Join(legacy, fmt.Sprintf("%08d.wal", seg)), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if got, segs := len(frames), walSegments(t, dir); got != len(segs) {
		t.Fatalf("rewrote %d segments of %d", got, len(segs))
	}

	withHeaders := assertRecovers(t, cfg, dir, wopt, want).RecoveryStats()
	withoutHeaders := assertRecovers(t, cfg, legacy, wopt, want).RecoveryStats()
	if withHeaders != withoutHeaders {
		t.Errorf("recovery accounting differs without headers:\n  with:    %+v\n  without: %+v", withHeaders, withoutHeaders)
	}
}

// TestRecoveryReadsOnlyTail pins the O(tail) claim to exact counts: with
// a snapshot as the journal's last per-tenant record, recovery replays
// zero records; two trailing submits later, it replays exactly those two.
func TestRecoveryReadsOnlyTail(t *testing.T) {
	dir := t.TempDir()
	log, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Shards: 1, BatchSize: 4, Journal: log, Rebuild: testRebuild, SnapshotEvery: 1}
	eng := New(cfg)
	addSpecTenant(t, eng, TenantSpec{ID: "t", Algorithm: "greedy", N: 16})

	// 20 single-event submits: every 4th triggers a batch apply followed
	// by a snapshot, so the journal ends ... S S S S Snap.
	for _, ev := range arrivals(1, 20, 1) {
		if err := eng.Submit("t", ev); err != nil {
			t.Fatal(err)
		}
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	rec, err := Recover(Config{Shards: 1, BatchSize: 4, Rebuild: testRebuild}, dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rs := rec.RecoveryStats()
	// 1 genesis snapshot + 20 Submits + 5 cadence snapshots = 26 records;
	// the snapshot at ordinal 25 covers the other 25.
	if rs.RecordsScanned != 26 || rs.RecordsReplayed != 0 || rs.RecordsSkipped != 25 || rs.SnapshotsRestored != 1 {
		t.Fatalf("RecoveryStats = %+v, want scanned 26, replayed 0, skipped 25, restored 1", rs)
	}

	// Two more submits after the snapshot: exactly those two replay.
	for _, ev := range arrivals(1_000, 2, 1) {
		if err := rec.Submit("t", ev); err != nil {
			t.Fatal(err)
		}
	}
	if err := rec.cfg.Journal.Close(); err != nil {
		t.Fatal(err)
	}
	rec2, err := Recover(Config{Shards: 1, BatchSize: 4, Rebuild: testRebuild}, dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer rec2.cfg.Journal.Close()
	rs = rec2.RecoveryStats()
	if rs.RecordsReplayed != 2 || rs.SnapshotsRestored != 1 {
		t.Fatalf("after tail submits: RecoveryStats = %+v, want replayed 2, restored 1", rs)
	}
	w, _ := rec.TenantStats("t")
	g, _ := rec2.TenantStats("t")
	if !bytes.Equal(CanonicalStats(w), CanonicalStats(g)) {
		t.Errorf("tail recovery diverges:\n  live: %s\n  rec:  %s", CanonicalStats(w), CanonicalStats(g))
	}
}

// TestSnapshotCompactionBoundsLog drives a snapshotting engine across
// many small segments: old segments must be deleted as snapshots make
// them redundant, the directory must not grow without bound, and the
// compacted log must still recover to the live state.
func TestSnapshotCompactionBoundsLog(t *testing.T) {
	dir := t.TempDir()
	log, err := wal.Open(dir, wal.Options{SegmentBytes: 1 << 10})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Shards: 2, BatchSize: 8, Journal: log, Rebuild: testRebuild, SnapshotEvery: 2}
	eng := New(cfg)
	addSpecTenant(t, eng, TenantSpec{ID: "a", Algorithm: "greedy", N: 16})
	addSpecTenant(t, eng, TenantSpec{ID: "b", Algorithm: "basic", N: 16})

	maxSegs := 0
	for i := 0; i < 40; i++ {
		if err := eng.Submit("a", testStream(16, 16, int64(i))...); err != nil {
			t.Fatal(err)
		}
		if err := eng.Submit("b", testStream(16, 16, int64(100+i))...); err != nil {
			t.Fatal(err)
		}
		if n := len(walSegments(t, dir)); n > maxSegs {
			maxSegs = n
		}
	}
	segs := walSegments(t, dir)
	if segs[0] == 1 {
		t.Errorf("segment 1 still present after %d snapshots: compaction never ran", 40)
	}
	// Each round appends ~2 snapshots + 2 submit records across 1KiB
	// segments; without truncation the directory would hold dozens of
	// segments. The bound is loose on purpose — the claim is "bounded",
	// not an exact count.
	if maxSegs > 12 {
		t.Errorf("journal grew to %d segments despite compaction", maxSegs)
	}

	want := eng.Stats()
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	rec, err := Recover(Config{Shards: 2, BatchSize: 8, Rebuild: testRebuild}, dir, wal.Options{SegmentBytes: 1 << 10})
	if err != nil {
		t.Fatalf("Recover from compacted log: %v", err)
	}
	defer rec.cfg.Journal.Close()
	got := rec.Stats()
	for i := range want {
		if w, g := CanonicalStats(want[i]), CanonicalStats(got[i]); !bytes.Equal(w, g) {
			t.Errorf("%s: recovered stats diverge after compaction:\n  live: %s\n  rec:  %s", want[i].Tenant, w, g)
		}
	}
}

// TestSnapshotPinsLogUntilEveryTenantSnapshots: a tenant whose latest
// snapshot is its genesis snapshot still needs its full history, so
// compaction must hold.
func TestSnapshotPinsLogUntilEveryTenantSnapshots(t *testing.T) {
	dir := t.TempDir()
	log, err := wal.Open(dir, wal.Options{SegmentBytes: 1 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	cfg := Config{Shards: 2, BatchSize: 8, Journal: log, Rebuild: testRebuild, SnapshotEvery: 2}
	eng := New(cfg)
	addSpecTenant(t, eng, TenantSpec{ID: "busy", Algorithm: "greedy", N: 16})
	addSpecTenant(t, eng, TenantSpec{ID: "idle", Algorithm: "basic", N: 16})

	for i := 0; i < 20; i++ {
		if err := eng.Submit("busy", testStream(16, 16, int64(i))...); err != nil {
			t.Fatal(err)
		}
	}
	if segs := walSegments(t, dir); segs[0] != 1 {
		t.Fatalf("segment 1 deleted while tenant %q has only its genesis snapshot", "idle")
	}
	// One batch for the idle tenant reaches its cadence; the pin lifts.
	if err := eng.Submit("idle", testStream(16, 32, 99)...); err != nil {
		t.Fatal(err)
	}
	if segs := walSegments(t, dir); segs[0] == 1 {
		t.Errorf("compaction still pinned after every tenant snapshotted (segments %v)", segs)
	}
}

// TestBreakerProbeRestoresFromSnapshot poisons a tenant that has
// journaled snapshots: the half-open probe must restore the last
// pre-poison snapshot, replay the tail, append a healing snapshot, and
// leave the tenant byte-identical to a never-poisoned reference — and a
// crash right after must recover the healed ledger exactly.
func TestBreakerProbeRestoresFromSnapshot(t *testing.T) {
	dir := t.TempDir()
	log, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Shards: 1, BatchSize: 4, Journal: log, Rebuild: testRebuild, SnapshotEvery: 2}
	eng := New(cfg)
	clk := &fakeClock{step: 1}
	eng.now = clk.tick
	addSpecTenant(t, eng, TenantSpec{ID: "t", Algorithm: "greedy", N: 8})

	// 8 events = 2 batches: a snapshot lands at the cadence.
	if err := eng.Submit("t", arrivals(1, 8, 1)...); err != nil {
		t.Fatal(err)
	}
	// Two more applied events after the snapshot — the probe must replay
	// this tail on top of the restored snapshot, not lose it.
	if err := eng.Submit("t", arrivals(9, 2, 1)...); err != nil {
		t.Fatal(err)
	}
	if err := eng.Flush("t"); err != nil {
		t.Fatal(err)
	}
	bad := []task.Event{{Kind: task.Arrive, Task: 5, Size: 1}} // duplicate ID
	if err := eng.Submit("t", bad...); err != nil {
		t.Fatal(err)
	}
	if err := eng.Flush("t"); !errors.Is(err, ErrTenantPoisoned) {
		t.Fatalf("poisoning flush: %v", err)
	}

	clk.advance(time.Hour)
	if err := eng.Submit("t", arrivals(11, 4, 1)...); err != nil {
		t.Fatalf("submit after backoff (probe): %v", err)
	}
	st, _ := eng.TenantStats("t")
	if st.BreakerState != "closed" || st.Events != 14 || st.DroppedEvents != 1 {
		t.Fatalf("after snapshot probe: state=%s events=%d dropped=%d, want closed/14/1",
			st.BreakerState, st.Events, st.DroppedEvents)
	}

	// The healed allocator equals a never-poisoned run of the kept events.
	ref := core.NewGreedy(tree.MustNew(8))
	core.ApplyEvents(ref, arrivals(1, 8, 1))
	core.ApplyEvents(ref, arrivals(9, 2, 1))
	core.ApplyEvents(ref, arrivals(11, 4, 1))
	tn := eng.lockTenant("t")
	got := tn.alloc.PELoads()
	tn.mu.Unlock()
	if !reflect.DeepEqual(got, ref.PELoads()) {
		t.Errorf("healed PE loads %v, reference %v", got, ref.PELoads())
	}

	// Crash now: recovery restores the healing snapshot (skipping the
	// poisonous suffix and the rebuild), matching the live ledger.
	want := eng.Stats()
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	rec, err := Recover(Config{Shards: 1, BatchSize: 4, Rebuild: testRebuild, SnapshotEvery: 2}, dir, wal.Options{})
	if err != nil {
		t.Fatalf("Recover after heal: %v", err)
	}
	defer rec.cfg.Journal.Close()
	gotStats := rec.Stats()
	if w, g := CanonicalStats(want[0]), CanonicalStats(gotStats[0]); !bytes.Equal(w, g) {
		t.Errorf("post-heal recovery diverges:\n  live: %s\n  rec:  %s", w, g)
	}
}

// TestMoveTenant rebalances a tenant (with a queued remainder) onto a
// second engine: the ledger survives byte-for-byte, the source forgets
// it, and each engine's journal recovers its own post-move view.
func TestMoveTenant(t *testing.T) {
	srcDir, dstDir := t.TempDir(), t.TempDir()
	srcLog, err := wal.Open(srcDir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	dstLog, err := wal.Open(dstDir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	src := New(Config{Shards: 2, BatchSize: 8, Journal: srcLog, Rebuild: testRebuild, SnapshotEvery: 4})
	dst := New(Config{Shards: 2, BatchSize: 8, Journal: dstLog, Rebuild: testRebuild, SnapshotEvery: 4})
	addSpecTenant(t, src, TenantSpec{ID: "mover", Algorithm: "periodic", N: 16, D: 1, DSet: true})
	addSpecTenant(t, src, TenantSpec{ID: "stayer", Algorithm: "basic", N: 16})

	if err := src.Submit("mover", testStream(16, 100, 4)...); err != nil {
		t.Fatal(err)
	}
	if err := src.Submit("stayer", testStream(16, 50, 5)...); err != nil {
		t.Fatal(err)
	}
	before, _ := src.TenantStats("mover")

	if err := src.MoveTenant("mover", dst); err != nil {
		t.Fatalf("MoveTenant: %v", err)
	}
	if err := src.Submit("mover", arrivals(1, 1, 1)...); !errors.Is(err, ErrUnknownTenant) {
		t.Fatalf("source still knows the moved tenant: %v", err)
	}
	after, _ := dst.TenantStats("mover")
	if w, g := CanonicalStats(before), CanonicalStats(after); !bytes.Equal(w, g) {
		t.Fatalf("move changed the ledger:\n  before: %s\n  after:  %s", w, g)
	}
	// The moved tenant keeps ingesting at its new home.
	if err := dst.Submit("mover", testStream(16, 40, 6)...); err != nil {
		t.Fatalf("submit at destination: %v", err)
	}

	srcWant := src.Stats()
	dstWant := dst.Stats()
	if err := srcLog.Close(); err != nil {
		t.Fatal(err)
	}
	if err := dstLog.Close(); err != nil {
		t.Fatal(err)
	}

	srcRec, err := Recover(Config{Shards: 2, BatchSize: 8, Rebuild: testRebuild}, srcDir, wal.Options{})
	if err != nil {
		t.Fatalf("source recover: %v", err)
	}
	defer srcRec.cfg.Journal.Close()
	if ids := srcRec.Tenants(); len(ids) != 1 || ids[0] != "stayer" {
		t.Fatalf("source recovered tenants %v, want [stayer]", ids)
	}
	for i, st := range srcRec.Stats() {
		if w, g := CanonicalStats(srcWant[i]), CanonicalStats(st); !bytes.Equal(w, g) {
			t.Errorf("source %s: recovered stats diverge", st.Tenant)
		}
	}

	dstRec, err := Recover(Config{Shards: 2, BatchSize: 8, Rebuild: testRebuild}, dstDir, wal.Options{})
	if err != nil {
		t.Fatalf("destination recover: %v", err)
	}
	defer dstRec.cfg.Journal.Close()
	if ids := dstRec.Tenants(); len(ids) != 1 || ids[0] != "mover" {
		t.Fatalf("destination recovered tenants %v, want [mover]", ids)
	}
	for i, st := range dstRec.Stats() {
		if w, g := CanonicalStats(dstWant[i]), CanonicalStats(st); !bytes.Equal(w, g) {
			t.Errorf("destination %s: recovered stats diverge:\n  live: %s\n  rec:  %s", st.Tenant, w, g)
		}
	}

	// Misuse surfaces as errors, not corruption.
	if err := src.MoveTenant("stayer", src); err == nil {
		t.Error("MoveTenant onto the source engine succeeded")
	}
	if err := src.MoveTenant("ghost", dst); !errors.Is(err, ErrUnknownTenant) {
		t.Errorf("MoveTenant(ghost) = %v, want ErrUnknownTenant", err)
	}
}

// TestSnapshotProbeDuringCompaction probes a poisoned tenant over and
// over while the tenants on the other shard snapshot — and so compact —
// on every event, in one-record segments, so every append rotates and
// nearly every snapshot deletes a segment. The probe's journal read
// must not race that compaction: every probe heals, and each drops
// exactly the one poison event it was probing past.
func TestSnapshotProbeDuringCompaction(t *testing.T) {
	const cycles = 500
	dir := t.TempDir()
	log, err := wal.Open(dir, wal.Options{SegmentBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	eng := New(Config{Shards: 2, BatchSize: 1, Journal: log, Rebuild: testRebuild, SnapshotEvery: 1})
	clk := &fakeClock{step: 1}
	eng.now = clk.tick

	const victim = "victim"
	var busy []string
	for i := 0; len(busy) < 2; i++ {
		if id := fmt.Sprintf("busy-%d", i); hashShard(id, 2) != hashShard(victim, 2) {
			busy = append(busy, id)
		}
	}
	for _, id := range append([]string{victim}, busy...) {
		addSpecTenant(t, eng, TenantSpec{ID: id, Algorithm: "greedy", N: 8})
	}
	if err := eng.Submit(victim, arrivals(1, 1, 1)...); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	busyErr := make(chan error, 1)
	defer func() {
		close(stop)
		if err := <-busyErr; err != nil {
			t.Errorf("busy shard: %v", err)
		}
	}()
	go func() {
		for i := 0; ; i++ {
			select {
			case <-stop:
				busyErr <- nil
				return
			default:
			}
			id := busy[i%len(busy)]
			ev := task.Event{Kind: task.Arrive, Task: task.ID(i), Size: 1}
			if err := eng.Submit(id, ev); err != nil {
				busyErr <- err
				return
			}
			ev.Kind = task.Depart
			if err := eng.Submit(id, ev); err != nil {
				busyErr <- err
				return
			}
		}
	}()

	for c := 1; c <= cycles; c++ {
		// Re-arriving the live task 1 panics the allocator: poisoned.
		if err := eng.Submit(victim, arrivals(1, 1, 1)...); !errors.Is(err, ErrTenantPoisoned) {
			t.Fatalf("cycle %d: poisoning submit: %v", c, err)
		}
		clk.advance(time.Hour)
		if err := eng.Flush(victim); err != nil {
			t.Fatalf("cycle %d: probe failed while the other shard compacted: %v", c, err)
		}
		if st, _ := eng.TenantStats(victim); st.DroppedEvents != int64(c) {
			t.Fatalf("cycle %d: DroppedEvents = %d, want %d (one poison event per probe)", c, st.DroppedEvents, c)
		}
	}
	if segs := walSegments(t, dir); segs[0] == 1 {
		t.Errorf("segment 1 survived %d cycles of compaction: the probes never raced a truncation", cycles)
	}
}

// copySegments copies the named journal segments of src into dst.
func copySegments(t *testing.T, dst, src string, segs []int) {
	t.Helper()
	for _, i := range segs {
		name := fmt.Sprintf("%08d.wal", i)
		data, err := os.ReadFile(filepath.Join(src, name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// latestSnapshotSegs maps each tenant to the segment of its last
// TypeSnapshot record in the journal at dir.
func latestSnapshotSegs(t *testing.T, dir string) map[string]int {
	t.Helper()
	latest := make(map[string]int)
	if err := wal.ReplayFrom(dir, 0, func(pos wal.Pos, rec wal.Record) error {
		if rec.Type == wal.TypeSnapshot {
			latest[rec.Tenant] = pos.Seg
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return latest
}

// assertRecovers recovers an engine from dir and requires every tenant's
// CanonicalStats to equal want.
func assertRecovers(t *testing.T, cfg Config, dir string, wopt wal.Options, want []TenantStats) *Engine {
	t.Helper()
	rec, err := Recover(cfg, dir, wopt)
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	t.Cleanup(func() { rec.cfg.Journal.Close() })
	got := rec.Stats()
	if len(got) != len(want) {
		t.Fatalf("recovered %d tenants, want %d", len(got), len(want))
	}
	for i := range want {
		if w, g := CanonicalStats(want[i]), CanonicalStats(got[i]); !bytes.Equal(w, g) {
			t.Errorf("%s: recovered stats diverge:\n  live: %s\n  rec:  %s", want[i].Tenant, w, g)
		}
	}
	return rec
}

// TestSnapshotCrashBetweenRebuildAndHeal crashes a probe between its
// TypeRebuild record and its healing snapshot: a copy of the journal cut
// right after the rebuild record must recover the probed tenant's exact
// ledger. The probe restores the latest snapshot — the genesis snapshot
// under SnapshotEvery 0, the last pre-poison cadence snapshot under 2,
// which the batch count tells apart — and recovery re-derives the
// rebuild from the same one. The recovered engine's next probe then
// reads a tail that holds that TypeRebuild, and must apply it as a
// truncation.
func TestSnapshotCrashBetweenRebuildAndHeal(t *testing.T) {
	// Probed batches: the genesis restore re-chunks all 10 kept events;
	// the cadence restore keeps the snapshot's 4 batches and replays none.
	for _, tc := range []struct {
		every   int
		batches int64
	}{{0, 3}, {2, 4}} {
		t.Run(fmt.Sprintf("SnapshotEvery=%d", tc.every), func(t *testing.T) {
			dir := t.TempDir()
			log, err := wal.Open(dir, wal.Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer log.Close()
			cfg := Config{Shards: 2, BatchSize: 4, Rebuild: testRebuild, SnapshotEvery: tc.every}
			live := cfg
			live.Journal = log
			eng := New(live)
			clk := &fakeClock{step: 1}
			eng.now = clk.tick
			addSpecTenant(t, eng, TenantSpec{ID: "t", Algorithm: "periodic", N: 16, D: 1, DSet: true})
			addSpecTenant(t, eng, TenantSpec{ID: "other", Algorithm: "basic", N: 16})

			// Two single-event batches, then two full ones; the cadence
			// snapshot after the fourth carries event 11 queued.
			for i := 1; i <= 2; i++ {
				if err := eng.Submit("t", arrivals(i, 1, 1)...); err != nil {
					t.Fatal(err)
				}
				if err := eng.Flush("t"); err != nil {
					t.Fatal(err)
				}
			}
			if err := eng.Submit("t", arrivals(3, 6, 1)...); err != nil {
				t.Fatal(err)
			}
			if err := eng.Submit("other", testStream(16, 20, 2)...); err != nil {
				t.Fatal(err)
			}
			if err := eng.Submit("t", arrivals(9, 3, 1)...); err != nil {
				t.Fatal(err)
			}
			// The queued event 11 and the three submitted here form one
			// batch, and the re-arrival of the live task 5 poisons it.
			poison := []task.Event{{Kind: task.Arrive, Task: 20, Size: 1}, {Kind: task.Arrive, Task: 5, Size: 1}, {Kind: task.Arrive, Task: 21, Size: 1}}
			if err := eng.Submit("t", poison...); !errors.Is(err, ErrTenantPoisoned) {
				t.Fatalf("poisoning submit: %v", err)
			}
			clk.advance(time.Hour)
			if err := eng.Flush("t"); err != nil {
				t.Fatalf("probe: %v", err)
			}
			want := eng.Stats()
			if st, _ := eng.TenantStats("t"); st.BreakerState != "closed" || st.Events != 10 || st.Batches != tc.batches || st.DroppedEvents != 4 {
				t.Fatalf("after probe: state=%s events=%d batches=%d dropped=%d, want closed/10/%d/4",
					st.BreakerState, st.Events, st.Batches, st.DroppedEvents, tc.batches)
			}

			var rebuildAt wal.Pos
			found := false
			if err := wal.ReplayFrom(dir, 0, func(pos wal.Pos, rec wal.Record) error {
				if rec.Type == wal.TypeRebuild {
					rebuildAt, found = pos, true
				}
				return nil
			}); err != nil || !found {
				t.Fatalf("no TypeRebuild record in the journal (err %v)", err)
			}
			// The crash: everything after the rebuild record is lost.
			var keep []int
			for _, i := range walSegments(t, dir) {
				if i <= rebuildAt.Seg {
					keep = append(keep, i)
				}
			}
			cut := t.TempDir()
			copySegments(t, cut, dir, keep)
			seg := filepath.Join(cut, fmt.Sprintf("%08d.wal", rebuildAt.Seg))
			data, err := os.ReadFile(seg)
			if err != nil {
				t.Fatal(err)
			}
			off := 0
			for i := 0; i <= rebuildAt.Idx; i++ {
				_, n, err := wal.DecodeRecord(data[off:])
				if err != nil {
					t.Fatal(err)
				}
				off += n
			}
			if off == len(data) {
				t.Fatal("the rebuild record is the journal's last: no healing snapshot to cut off")
			}
			if err := os.WriteFile(seg, data[:off], 0o644); err != nil {
				t.Fatal(err)
			}

			rec := assertRecovers(t, cfg, cut, wal.Options{}, want)
			if rs := rec.RecoveryStats(); rs.SnapshotsRestored != 2 {
				t.Errorf("SnapshotsRestored = %d, want 2 (one per tenant)", rs.SnapshotsRestored)
			}

			// Poison the recovered tenant again: its tail now runs through
			// the first rebuild, which must truncate the first poison away.
			rec.now = clk.tick
			if err := rec.Submit("t", arrivals(30, 1, 1)...); err != nil {
				t.Fatal(err)
			}
			if err := rec.Submit("t", arrivals(30, 4, 1)...); !errors.Is(err, ErrTenantPoisoned) {
				t.Fatalf("second poisoning submit: %v", err)
			}
			clk.advance(time.Hour)
			if err := rec.Flush("t"); err != nil {
				t.Fatalf("second probe: %v", err)
			}
			if st, _ := rec.TenantStats("t"); st.BreakerState != "closed" || st.Events != 10 || st.DroppedEvents != 9 {
				t.Fatalf("after second probe: state=%s events=%d dropped=%d, want closed/10/9", st.BreakerState, st.Events, st.DroppedEvents)
			}
			ref := core.NewPeriodic(tree.MustNew(16), 1, core.DecreasingSize)
			core.ApplyEvents(ref, arrivals(1, 10, 1))
			tn := rec.lockTenant("t")
			got := tn.alloc.PELoads()
			tn.mu.Unlock()
			if !reflect.DeepEqual(got, ref.PELoads()) {
				t.Errorf("healed PE loads %v, reference %v", got, ref.PELoads())
			}
		})
	}
}

// pinnedJournal is the retention set-up of the watermark tests: in 1 KiB
// segments, tenant "a" snapshots once and idles, pinning the log, while
// "b" snapshots after every submit across many segments. cfg is the
// engine config without its journal, for Recover.
func pinnedJournal(t *testing.T, dir string) (eng *Engine, log *wal.Log, cfg Config, wopt wal.Options) {
	t.Helper()
	wopt = wal.Options{SegmentBytes: 1 << 10}
	log, err := wal.Open(dir, wopt)
	if err != nil {
		t.Fatal(err)
	}
	cfg = Config{Shards: 2, BatchSize: 8, Rebuild: testRebuild, SnapshotEvery: 1}
	live := cfg
	live.Journal = log
	eng = New(live)
	addSpecTenant(t, eng, TenantSpec{ID: "a", Algorithm: "greedy", N: 16})
	addSpecTenant(t, eng, TenantSpec{ID: "b", Algorithm: "periodic", N: 16, D: 1, DSet: true})
	if err := eng.Submit("a", arrivals(1, 8, 1)...); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if err := eng.Submit("b", testStream(16, 16, int64(i))...); err != nil {
			t.Fatal(err)
		}
	}
	return eng, log, cfg, wopt
}

// TestSnapshotRecoveryKeepsWatermarks: Recover starts each tenant's
// compaction watermark at its restored snapshot's segment, so the first
// snapshot after recovery deletes every segment older than all the
// restored snapshots — compaction must not wait for every tenant to
// snapshot again.
func TestSnapshotRecoveryKeepsWatermarks(t *testing.T) {
	dir := t.TempDir()
	_, log, cfg, wopt := pinnedJournal(t, dir)
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	latest := latestSnapshotSegs(t, dir)
	if segs := walSegments(t, dir); segs[0] != latest["a"] || latest["b"] <= latest["a"]+1 {
		t.Fatalf("setup: segments %v with latest snapshots %v; want a's pinning the log well behind b's", segs, latest)
	}

	rec, err := Recover(cfg, dir, wopt)
	if err != nil {
		t.Fatal(err)
	}
	// One snapshot by "a", behind a submit record too big to share a
	// segment, so it lands past b's; "b" stays idle at its restored
	// snapshot.
	if err := rec.Submit("a", arrivals(9, 200, 1)...); err != nil {
		t.Fatal(err)
	}
	if seg := latestSnapshotSegs(t, dir)["a"]; seg <= latest["b"] {
		t.Fatalf("setup: a's new snapshot in segment %d, not past b's %d", seg, latest["b"])
	}
	if segs := walSegments(t, dir); segs[0] != latest["b"] {
		t.Errorf("after recovery, a's snapshot left segments %v; want every segment before b's restored snapshot (%d) deleted",
			segs, latest["b"])
	}
	want := rec.Stats()
	if err := rec.cfg.Journal.Close(); err != nil {
		t.Fatal(err)
	}
	assertRecovers(t, cfg, dir, wopt, want)
}

// TestSnapshotTruncationCrashPoints enumerates the journals a crash
// inside wal.Log.TruncateBefore can leave. The live engine's last
// snapshot lifts the compaction bound, and the truncation it runs
// deletes a run of sealed segments in ascending order, so a crash after
// k removals leaves the log minus its first k segments. Every such state
// that still holds each tenant's latest snapshot must recover to the
// live ledger.
func TestSnapshotTruncationCrashPoints(t *testing.T) {
	dir := t.TempDir()
	eng, log, cfg, wopt := pinnedJournal(t, dir)
	// Sealed segments never change, so copies taken now are the bytes the
	// coming truncation deletes.
	before := t.TempDir()
	copySegments(t, before, dir, walSegments(t, dir))
	if err := eng.Submit("a", arrivals(9, 8, 1)...); err != nil {
		t.Fatal(err)
	}
	want := eng.Stats()
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	after := walSegments(t, dir)
	var deleted []int
	for _, i := range walSegments(t, before) {
		if i < after[0] {
			deleted = append(deleted, i)
		}
	}
	if len(deleted) < 2 {
		t.Fatalf("setup: the final snapshot truncated %d segments, want several", len(deleted))
	}
	// The log as the truncation found it, then minus its first k segments.
	full := append(append([]int(nil), deleted...), after...)
	for k := 0; k <= len(deleted); k++ {
		state := t.TempDir()
		copySegments(t, state, before, full[k:len(deleted)])
		copySegments(t, state, dir, after)
		latest := latestSnapshotSegs(t, state)
		if latest["a"] < full[k] || latest["b"] < full[k] {
			t.Fatalf("k=%d: state %v lost a latest snapshot (%v)", k, walSegments(t, state), latest)
		}
		assertRecovers(t, cfg, state, wopt, want)
	}
}

// TestSnapshotGenesisIsRegistration pins the registration record of a
// journaled tenant: one TypeSnapshot holding the spec, an empty ledger,
// fault position 0, and the placer's route. An allocator that cannot be
// checkpointed has no genesis snapshot, so a journaled engine refuses it
// and writes nothing.
func TestSnapshotGenesisIsRegistration(t *testing.T) {
	dir := t.TempDir()
	log, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	eng := New(Config{Shards: 2, Journal: log, Rebuild: testRebuild})
	spec := TenantSpec{ID: "opaque", Algorithm: "basic", N: 8}
	opaque := &cancelOnArrive{Allocator: core.NewBasic(tree.MustNew(8))}
	if err := eng.AddTenant(spec.ID, opaque, WithTenantSpec(spec)); err == nil {
		t.Fatal("journaled engine accepted an allocator that is not core.Checkpointable")
	}
	if _, ok := eng.Routes()[spec.ID]; ok {
		t.Error("the refused tenant kept a route")
	}

	spec = TenantSpec{ID: "t", Algorithm: "periodic", N: 16, D: 2, DSet: true}
	addSpecTenant(t, eng, spec)
	var recs []wal.Record
	if err := wal.Replay(dir, func(_ int, rec wal.Record) error {
		recs = append(recs, rec)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].Type != wal.TypeSnapshot || recs[0].Tenant != "t" {
		t.Fatalf("journal after registrations holds %+v, want one TypeSnapshot for %q", recs, "t")
	}
	var env tenantSnapshot
	if err := json.Unmarshal(recs[0].Data, &env); err != nil {
		t.Fatal(err)
	}
	if env.Spec != spec || env.Events != 0 || env.Batches != 0 || env.FaultPos != 0 || env.Shard != eng.Routes()["t"] {
		t.Errorf("genesis envelope %+v: want spec %+v, empty ledger, fault position 0, shard %d", env, spec, eng.Routes()["t"])
	}
}

// TestMoveTenantRefusesQueueAboveMaxQueue moves a tenant whose queue
// holds more events than the destination's MaxQueue. ingest assumes a
// queue within the bound, so such an arrival would crash the next
// Submit with a negative slice bound. The move is refused instead, and
// the tenant stays on the source, where it keeps ingesting.
func TestMoveTenantRefusesQueueAboveMaxQueue(t *testing.T) {
	src := New(Config{Shards: 2, BatchSize: 32, Rebuild: testRebuild})
	dst := New(Config{Shards: 2, MaxQueue: 8, Rebuild: testRebuild})
	addSpecTenant(t, src, TenantSpec{ID: "q", Algorithm: "basic", N: 16})
	if err := src.Submit("q", arrivals(1, 20, 1)...); err != nil {
		t.Fatal(err)
	}
	moveErr := src.MoveTenant("q", dst)
	home := src
	if moveErr == nil {
		home = dst
	}
	if err := home.Submit("q", arrivals(21, 1, 1)...); err != nil {
		t.Fatalf("submit after the move attempt: %v", err)
	}
	if moveErr == nil {
		t.Fatal("MoveTenant of a 20-event queue into MaxQueue 8 succeeded")
	}
	if _, ok := dst.Routes()["q"]; ok {
		t.Error("the refused tenant has a route at the destination")
	}
	st, err := src.TenantStats("q")
	if err != nil {
		t.Fatalf("source lost the tenant: %v", err)
	}
	if st.Queued != 21 || st.Events != 0 {
		t.Errorf("source tenant has %d queued, %d applied; want 21 queued, 0 applied", st.Queued, st.Events)
	}
}

// TestSnapshotRecoverRefusesQueueAboveMaxQueue recovers, under MaxQueue
// 8, a journal whose last snapshot holds 14 queued events. Replaying
// the Submit after it would crash on a negative slice bound; Recover
// refuses the snapshot instead, and the same journal still recovers
// under the configuration that wrote it.
func TestSnapshotRecoverRefusesQueueAboveMaxQueue(t *testing.T) {
	dir := t.TempDir()
	log, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Shards: 1, BatchSize: 16, SnapshotEvery: 1, Journal: log, Rebuild: testRebuild}
	eng := New(cfg)
	addSpecTenant(t, eng, TenantSpec{ID: "q", Algorithm: "basic", N: 16})
	if err := eng.Submit("q", arrivals(1, 30, 1)...); err != nil {
		t.Fatal(err)
	}
	if err := eng.Submit("q", arrivals(31, 1, 1)...); err != nil {
		t.Fatal(err)
	}
	want := eng.Stats()
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}

	bounded := cfg
	bounded.Journal, bounded.MaxQueue = nil, 8
	if rec, err := Recover(bounded, dir, wal.Options{}); err == nil {
		rec.cfg.Journal.Close()
		t.Fatal("Recover under MaxQueue 8 restored a snapshot with 14 queued events")
	} else if !strings.Contains(err.Error(), "MaxQueue") {
		t.Errorf("Recover error %q does not name MaxQueue", err)
	}

	cfg.Journal = nil
	assertRecovers(t, cfg, dir, wal.Options{}, want)
}

// TestMoveTenantKeepsAuditLedger moves a tenant between two audited
// engines. The invariant checker's ledger travels with it: the
// destination's stats and its recovery equal the source's before the
// move, and the tenant's later departures of tasks that arrived before
// the move find their sizes in the restored ledger, so the audit stays
// clean.
func TestMoveTenantKeepsAuditLedger(t *testing.T) {
	srcDir, dstDir := t.TempDir(), t.TempDir()
	srcLog, err := wal.Open(srcDir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer srcLog.Close()
	dstLog, err := wal.Open(dstDir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Shards: 2, BatchSize: 8, Audit: true, Rebuild: testRebuild}
	srcCfg, dstCfg := cfg, cfg
	srcCfg.Journal, dstCfg.Journal = srcLog, dstLog
	src, dst := New(srcCfg), New(dstCfg)
	addSpecTenant(t, src, TenantSpec{ID: "mover", Algorithm: "periodic", N: 16, D: 1, DSet: true})
	stream := testStream(16, 120, 9)
	half := len(stream) / 2
	if err := src.Submit("mover", stream[:half]...); err != nil {
		t.Fatal(err)
	}
	before, _ := src.TenantStats("mover")

	if err := src.MoveTenant("mover", dst); err != nil {
		t.Fatalf("MoveTenant: %v", err)
	}
	after, _ := dst.TenantStats("mover")
	if w, g := CanonicalStats(before), CanonicalStats(after); !bytes.Equal(w, g) {
		t.Fatalf("move changed the ledger:\n  before: %s\n  after:  %s", w, g)
	}
	if err := dstLog.Close(); err != nil {
		t.Fatal(err)
	}
	rec := assertRecovers(t, cfg, dstDir, wal.Options{}, []TenantStats{before})

	if err := rec.Submit("mover", stream[half:]...); err != nil {
		t.Fatal(err)
	}
	if err := rec.Flush("mover"); err != nil {
		t.Fatal(err)
	}
	st, _ := rec.TenantStats("mover")
	if st.Events != int64(len(stream)) {
		t.Errorf("after the move the tenant applied %d of %d events", st.Events, len(stream))
	}
	if len(st.Violations) != 0 {
		t.Errorf("after the move the audit found %d violations, the first: %v", len(st.Violations), st.Violations[0])
	}
}

// TestMoveTenantRefusesUnauditedIntoAudited moves a tenant from an
// unaudited engine into an audited one. Its snapshot has no audit
// ledger to restore, so the move is refused: the source keeps the
// tenant and goes on ingesting, and the destination has neither a route
// nor a journal record for it.
func TestMoveTenantRefusesUnauditedIntoAudited(t *testing.T) {
	dstDir := t.TempDir()
	dstLog, err := wal.Open(dstDir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer dstLog.Close()
	src := New(Config{Shards: 2, BatchSize: 8, Journal: testJournal(t), Rebuild: testRebuild})
	dst := New(Config{Shards: 2, BatchSize: 8, Audit: true, Journal: dstLog, Rebuild: testRebuild})
	addSpecTenant(t, src, TenantSpec{ID: "mover", Algorithm: "basic", N: 16})
	stream := testStream(16, 60, 10)
	half := len(stream) / 2
	if err := src.Submit("mover", stream[:half]...); err != nil {
		t.Fatal(err)
	}

	err = src.MoveTenant("mover", dst)
	if err == nil || !strings.Contains(err.Error(), "no audit ledger") {
		t.Fatalf("MoveTenant from an unaudited into an audited engine = %v, want a refusal naming the missing audit ledger", err)
	}
	if err := src.Submit("mover", stream[half:]...); err != nil {
		t.Fatalf("source stopped ingesting after the refused move: %v", err)
	}
	if err := src.Flush("mover"); err != nil {
		t.Fatal(err)
	}
	if st, err := src.TenantStats("mover"); err != nil || st.Events != int64(len(stream)) {
		t.Errorf("source tenant after the refused move: %+v, %v; want all %d events applied", st, err, len(stream))
	}
	if _, ok := dst.Routes()["mover"]; ok {
		t.Error("the refused tenant has a route at the destination")
	}
	if err := wal.Replay(dstDir, func(_ int, rec wal.Record) error {
		if rec.Tenant == "mover" {
			t.Errorf("destination journal holds a type-%d record for the refused tenant", rec.Type)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}
