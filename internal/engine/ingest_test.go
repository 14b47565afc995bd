package engine

import (
	"bytes"
	"reflect"
	"slices"
	"testing"

	"partalloc/internal/obs"
	"partalloc/internal/task"
)

// queueCap is the capacity of the tenant's queue array.
func queueCap(t *testing.T, e *Engine, id string) int {
	t.Helper()
	s, tn := e.lockTenant(id)
	if tn == nil {
		t.Fatalf("unknown tenant %q", id)
	}
	defer s.mu.Unlock()
	return cap(tn.queue)
}

// cutBursts cuts evs into consecutive bursts whose sizes cycle through
// sizes; the last burst takes what is left.
func cutBursts(evs []task.Event, sizes []int) [][]task.Event {
	var out [][]task.Event
	for i := 0; len(evs) > 0; i++ {
		n := min(sizes[i%len(sizes)], len(evs))
		out = append(out, evs[:n])
		evs = evs[n:]
	}
	return out
}

// TestSubmitQueueStaysUnderTwoBatches submits bursts of 1 to
// 5·BatchSize+3 events and checks after every call that the tenant's
// queue array holds at most two batches. Full batches apply straight
// from the caller's slice, and only a top-up or a tail under one batch
// is copied into the queue, so its array never grows to a burst.
func TestSubmitQueueStaysUnderTwoBatches(t *testing.T) {
	const bs = 16
	sizes := []int{1, bs / 2, bs, bs + 1, 2*bs + bs/2, 5*bs + 3, bs - 1, 3 * bs}
	for _, tc := range []struct {
		name      string
		journaled bool
		maxQueue  int
	}{
		{"unjournaled", false, 0},
		{"journaled", true, 0},
		{"maxqueue-block", false, 4 * bs},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Config{Shards: 1, BatchSize: bs, MaxQueue: tc.maxQueue, Overload: Block, Rebuild: testRebuild}
			if tc.journaled {
				cfg.Journal = testJournal(t)
			}
			eng := New(cfg)
			addSpecTenant(t, eng, TenantSpec{ID: "t", Algorithm: "random", N: 64, Seed: 1})
			stream := testStream(64, 600, 7)
			for i, burst := range cutBursts(stream, sizes) {
				if err := eng.Submit("t", burst...); err != nil {
					t.Fatal(err)
				}
				if c := queueCap(t, eng, "t"); c > 2*bs {
					t.Fatalf("after burst %d of %d events the queue array holds %d events, above 2·BatchSize = %d",
						i, len(burst), c, 2*bs)
				}
			}
			if err := eng.Flush("t"); err != nil {
				t.Fatal(err)
			}
			if st, _ := eng.TenantStats("t"); st.Events != int64(len(stream)) {
				t.Errorf("%d events applied, want %d", st.Events, len(stream))
			}
		})
	}
}

// TestSubmitLeavesCallerSliceAlone submits bursts that leave a tail in
// the queue, top a partial queue up and apply full batches from the
// caller's slice. After each Submit the slice must read back unchanged;
// the test then overwrites it with arrivals the tenant never got. An
// engine that kept the slice would apply them at the next Flush, so the
// final CanonicalStats must equal those of a reference engine fed fresh
// copies.
func TestSubmitLeavesCallerSliceAlone(t *testing.T) {
	const bs = 16
	for _, journaled := range []bool{false, true} {
		name := "unjournaled"
		if journaled {
			name = "journaled"
		}
		t.Run(name, func(t *testing.T) {
			build := func() *Engine {
				cfg := Config{Shards: 1, BatchSize: bs, Rebuild: testRebuild}
				if journaled {
					cfg.Journal = testJournal(t)
				}
				eng := New(cfg)
				addSpecTenant(t, eng, TenantSpec{ID: "t", Algorithm: "random", N: 64, Seed: 3})
				return eng
			}
			eng, ref := build(), build()
			stream := testStream(64, 300, 11)
			bursts := cutBursts(stream, []int{2*bs + bs/2, bs + bs/2 + 4, 5, 3*bs + 2})
			for i, burst := range bursts {
				buf := slices.Clone(burst)
				if err := eng.Submit("t", buf...); err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(buf, burst) {
					t.Fatalf("burst %d: Submit wrote the caller's slice", i)
				}
				if err := ref.Submit("t", slices.Clone(burst)...); err != nil {
					t.Fatal(err)
				}
				for j := range buf {
					buf[j] = task.Event{Kind: task.Arrive, Task: task.ID(1_000_000 + 1000*i + j), Size: 64}
				}
			}
			for _, e := range []*Engine{eng, ref} {
				if err := e.Flush("t"); err != nil {
					t.Fatal(err)
				}
			}
			got, _ := eng.TenantStats("t")
			want, _ := ref.TenantStats("t")
			if !bytes.Equal(CanonicalStats(got), CanonicalStats(want)) {
				t.Errorf("stats diverge from the reference fed fresh copies:\n got  %s\n want %s",
					CanonicalStats(got), CanonicalStats(want))
			}
		})
	}
}

// TestIngestLedgersReadAsIfCopied checks that the queue ledgers count
// the events a Submit takes as queued until their batch applies, as if
// the whole submission were copied into the queue first. The expected
// values are worked out by hand for BatchSize 16 on one stripe: the
// "queue" attribute of each batch-apply flight-recorder event (the depth
// left behind the batch), the stripe's PeakQueued (the queue plus the
// submission at admission), and the audit, which must report nothing,
// not even where the queue reaches MaxQueue exactly.
func TestIngestLedgersReadAsIfCopied(t *testing.T) {
	const bs = 16
	for _, tc := range []struct {
		name     string
		maxQueue int
		policy   OverloadPolicy
		bursts   []int
		depths   []int64 // per batch, in apply order
		peak     int
		queued   int
	}{
		// 40 events at an empty queue: two direct batches leave 24 and 8
		// behind, and the 8 stay queued.
		{"empty-queue-2.5-batches", 0, Block, []int{40}, []int64{24, 8}, 40, 8},
		// 8 queued, then 28: the top-up takes 8 and leaves 20, the direct
		// batch leaves 4, and the tail of 4 stays queued. The backlog peaks
		// at 8+28.
		{"top-up-direct-tail", 0, Block, []int{8, 28}, []int64{20, 4}, 36, 4},
		// 8 queued, then 40 under MaxQueue 24: each admission fills the
		// queue to 24 exactly. Two top-ups leave 8 behind each, and the
		// last 8 top up the queue to one final batch.
		{"maxqueue-block", 24, Block, []int{8, 40}, []int64{8, 8, 0}, 24, 0},
		// 40 and 40 at an empty queue under MaxQueue 24: a direct batch
		// leaves 8, then each top-up leaves 8 until the last takes the
		// final 8 and leaves nothing.
		{"maxqueue-degrade", 24, Degrade, []int{40, 40}, []int64{8, 8, 8, 8, 0}, 24, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sink := obs.NewSink(obs.NewMetrics(), obs.NewFlightRecorder(256))
			eng := New(Config{Shards: 1, BatchSize: bs, MaxQueue: tc.maxQueue, Overload: tc.policy,
				Audit: true, Sink: sink, Rebuild: testRebuild})
			addSpecTenant(t, eng, TenantSpec{ID: "t", Algorithm: "random", N: 64, Seed: 1})
			next := 1
			for _, n := range tc.bursts {
				if err := eng.Submit("t", arrivals(next, n, 1)...); err != nil {
					t.Fatal(err)
				}
				next += n
			}
			var depths []int64
			for _, ev := range sink.FlightRecorder().Events() {
				if ev.Kind == obs.EventBatchApply {
					depths = append(depths, ev.Attrs["queue"])
				}
			}
			if !reflect.DeepEqual(depths, tc.depths) {
				t.Errorf("batch-apply queue depths %v, want %v", depths, tc.depths)
			}
			if got := eng.ShardStats()[0].PeakQueued; got != tc.peak {
				t.Errorf("PeakQueued = %d, want %d", got, tc.peak)
			}
			st, err := eng.TenantStats("t")
			if err != nil {
				t.Fatal(err)
			}
			if st.Queued != tc.queued || st.Events != int64(next-1-tc.queued) {
				t.Errorf("%d queued and %d applied, want %d queued of %d", st.Queued, st.Events, tc.queued, next-1)
			}
			if len(st.Violations) != 0 {
				t.Errorf("audit: %v", st.Violations)
			}
		})
	}
}

// TestMoveTenantThawedQueueDrainsFirst moves a tenant with 40 queued
// events from an engine with BatchSize 64 into one with BatchSize 16, so
// its thawed queue holds more than two batches, then submits 8 events.
// Ingest must drain the resident queue batch by batch before it tops a
// partial one up: 3 batches, in the stats of a BatchSize-16 engine that
// got all 48 events in one Submit.
func TestMoveTenantThawedQueueDrainsFirst(t *testing.T) {
	spec := TenantSpec{ID: "t", Algorithm: "random", N: 64, Seed: 5}
	src := New(Config{Shards: 2, BatchSize: 64, Rebuild: testRebuild})
	dst := New(Config{Shards: 2, BatchSize: 16, Rebuild: testRebuild})
	ref := New(Config{Shards: 2, BatchSize: 16, Rebuild: testRebuild})
	addSpecTenant(t, src, spec)
	addSpecTenant(t, ref, spec)
	evs := arrivals(1, 48, 1)
	if err := src.Submit("t", evs[:40]...); err != nil {
		t.Fatal(err)
	}
	if err := src.MoveTenant("t", dst); err != nil {
		t.Fatal(err)
	}
	if err := dst.Submit("t", evs[40:]...); err != nil {
		t.Fatal(err)
	}
	if err := ref.Submit("t", evs...); err != nil {
		t.Fatal(err)
	}
	got, err := dst.TenantStats("t")
	if err != nil {
		t.Fatal(err)
	}
	if got.Batches != 3 || got.Queued != 0 {
		t.Errorf("%d batches with %d queued, want 3 batches and an empty queue", got.Batches, got.Queued)
	}
	want, _ := ref.TenantStats("t")
	if !bytes.Equal(CanonicalStats(got), CanonicalStats(want)) {
		t.Errorf("moved tenant's stats diverge from one Submit at BatchSize 16:\n got  %s\n want %s",
			CanonicalStats(got), CanonicalStats(want))
	}
}
