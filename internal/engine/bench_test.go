package engine

import (
	"context"
	"fmt"
	"math"
	"testing"

	"partalloc/internal/core"
	"partalloc/internal/sim"
	"partalloc/internal/task"
	"partalloc/internal/tree"
	"partalloc/internal/wal"
)

// benchFleet builds the benchmark tenant mix: the batching-friendly
// A_Rand and A_B, and the reallocating A_M-lazy(4).
func benchFleet(b *testing.B, tenants int) (map[string]func() core.Allocator, map[string][]task.Event) {
	b.Helper()
	factories := make(map[string]func() core.Allocator, tenants)
	streams := make(map[string][]task.Event, tenants)
	ids := benchIDs(tenants)
	for i, id := range ids {
		i := i
		switch i % 3 {
		case 0:
			factories[id] = func() core.Allocator { return core.NewRandom(tree.MustNew(256), int64(i+1)) }
		case 1:
			factories[id] = func() core.Allocator { return core.NewBasic(tree.MustNew(256)) }
		default:
			factories[id] = func() core.Allocator { return core.NewLazy(tree.MustNew(256), 4, core.DecreasingSize) }
		}
		streams[id] = testStream(256, 2500, int64(i+1))
	}
	return factories, streams
}

func benchIDs(tenants int) []string {
	ids := make([]string, tenants)
	for i := range ids {
		ids[i] = string(rune('a'+i%26)) + "-tenant"
		if i >= 26 {
			ids[i] = ids[i] + "x"
		}
	}
	return ids
}

// BenchmarkEngineReplay measures batched, sharded ingestion end to end.
func BenchmarkEngineReplay(b *testing.B) {
	factories, streams := benchFleet(b, 8)
	var events int64
	for _, evs := range streams {
		events += int64(len(evs))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng := New(Config{BatchSize: 256})
		for _, id := range benchIDs(8) {
			if err := eng.AddTenant(id, factories[id]()); err != nil {
				b.Fatal(err)
			}
		}
		if err := eng.Replay(context.Background(), streams); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(events)*float64(b.N)/b.Elapsed().Seconds(), "events/s")
}

// BenchmarkSerialSimulate is the baseline the engine is judged against:
// one sim.Run per tenant, sequentially, as a pre-engine caller would.
func BenchmarkSerialSimulate(b *testing.B) {
	factories, streams := benchFleet(b, 8)
	var events int64
	for _, evs := range streams {
		events += int64(len(evs))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, id := range benchIDs(8) {
			sim.Run(factories[id](), task.Sequence{Events: streams[id]}, sim.Options{})
		}
	}
	b.ReportMetric(float64(events)*float64(b.N)/b.Elapsed().Seconds(), "events/s")
}

// BenchmarkSubmitJournaled measures journaled Submit calls shaped like
// perfbench's journal-ingest workload: 16 A_Rand tenants on N=1024 over
// 4 shards, batch 256, 32-event bursts visited round-robin, SyncNever,
// a snapshot every 16 batches and 1 MiB segments, so compaction keeps
// the journal bounded. Each tenant's burst departs its 16 oldest live
// tasks and arrives 16 new ones, so the stream never ends and, once
// warm, every burst holds 32 events. One op is one Submit.
func BenchmarkSubmitJournaled(b *testing.B) {
	const (
		tenants = 16
		burst   = 32
		live    = 256 // live tasks per tenant once warm
	)
	log, err := wal.Open(b.TempDir(), wal.Options{Sync: wal.SyncNever, SegmentBytes: 1 << 20})
	if err != nil {
		b.Fatal(err)
	}
	defer log.Close()
	eng := New(Config{Shards: 4, BatchSize: 256, SnapshotEvery: 16, Journal: log, Rebuild: testRebuild})
	type stream struct {
		id     string
		ring   [live]task.Event // slot i holds the arrival it departs next
		next   int
		nextID task.ID
	}
	streams := make([]stream, tenants)
	for i := range streams {
		streams[i].id = fmt.Sprintf("tenant-%02d", i)
		addSpecTenant(b, eng, TenantSpec{ID: streams[i].id, Algorithm: "random", N: 1024, Seed: int64(i + 1), SeedSet: true})
	}
	evs := make([]task.Event, 0, burst)
	var events int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := &streams[i%tenants]
		evs = evs[:0]
		for range burst / 2 {
			slot := &s.ring[s.next%live]
			if slot.Task != 0 {
				evs = append(evs, task.Event{Kind: task.Depart, Task: slot.Task, Size: slot.Size, Time: float64(s.next)})
			}
			s.nextID++
			*slot = task.Event{Kind: task.Arrive, Task: s.nextID, Size: 1 << (s.nextID % 5), Time: float64(s.next)}
			evs = append(evs, *slot)
			s.next++
		}
		if err := eng.Submit(s.id, evs...); err != nil {
			b.Fatal(err)
		}
		events += int64(len(evs))
	}
	b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/s")
}

// benchMoves keeps BenchmarkBalancedPlan's plans live.
var benchMoves []Move

// BenchmarkBalancedPlan times one rebalance plan shaped like the skew
// gate's: 48 tenants placed on 8 shards by the fewest-tenants rule,
// zipf(0.8) loads decaying as 6000/(rank+1)^0.8, and a budget of
// d·shards moves with d=1. The plan levels the shards in 6 moves, short
// of its budget. It is never applied, so every op plans from the same
// routing table.
func BenchmarkBalancedPlan(b *testing.B) {
	const tenants, shards, d = 48, 8, 1
	p := newRouting(PlacementBalanced, shards)
	loads := make(map[string]float64, tenants)
	for i := 0; i < tenants; i++ {
		id := fmt.Sprintf("tenant-%02d", i)
		place(p, id)
		loads[id] = 6000 / math.Pow(float64(i+1), 0.8)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchMoves = p.Plan(loads, d*shards)
	}
}

// convergedSkew builds the skew gate's fleet, 48 zipf tenants on 8
// shards with d=1, and runs their whole streams and 8 forced passes, so
// routing has converged.
func convergedSkew(b *testing.B) *Engine {
	specs, streams := skewFleet()
	eng := New(skewConfig(8, true, nil))
	for _, spec := range specs {
		addSpecTenant(b, eng, spec)
	}
	driveSkew(b, eng, specs, streams)
	for i := 0; i < 8; i++ {
		if _, err := eng.Rebalance(); err != nil {
			b.Fatal(err)
		}
	}
	return eng
}

// BenchmarkRebalancePass times one uncontended forced pass (measure,
// plan, and the audit when it moved anything) on convergedSkew's fleet.
// No event arrives between passes: each one measures empty windows and
// decays every estimate by the same factor, so the load ratios it plans
// from hold still. After about 14,000 passes the estimates would turn
// subnormal, where rounding upsets those ratios, so every 1024 passes
// the meters' estimates are put back, off the clock.
func BenchmarkRebalancePass(b *testing.B) {
	eng := convergedSkew(b)
	warm := eng.RebalanceStats().Moves
	est := make(map[*loadMeter]float64)
	for _, rt := range eng.routing.routes {
		est[rt.meter] = rt.meter.est
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%1024 == 1023 {
			b.StopTimer()
			for m, e := range est {
				m.est = e
			}
			b.StartTimer()
		}
		if _, err := eng.Rebalance(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(eng.RebalanceStats().Moves-warm)/float64(b.N), "moves/op")
}

// BenchmarkRebalancePassContended times the same forced passes while
// another goroutine keeps submitting 1024-event batches to the fleet's
// tenants in turn, one batch per Submit, as skew-rebalance's second
// client does. Each batch arrives and departs 512 fresh size-1 tasks,
// so every stripe keeps applying while the live task set holds still.
// A pass that waited for each stripe lock in turn would queue behind
// those applies. moves/op counts the passes that had to lock stripes to
// move a tenant: back-to-back passes each fold about one batch, so the
// tenant just fed looks heavy and is often moved.
func BenchmarkRebalancePassContended(b *testing.B) {
	eng := convergedSkew(b)
	ids := eng.Tenants()
	evs := make([]task.Event, 0, 1024)
	for id := task.ID(1 << 40); len(evs) < cap(evs); id++ {
		evs = append(evs, task.Event{Kind: task.Arrive, Task: id, Size: 1}, task.Event{Kind: task.Depart, Task: id, Size: 1})
	}
	stop := make(chan struct{})
	errc := make(chan error, 1)
	go func() {
		for i := 0; ; i++ {
			select {
			case <-stop:
				errc <- nil
				return
			default:
			}
			if err := eng.Submit(ids[i%len(ids)], evs...); err != nil {
				errc <- err
				return
			}
		}
	}()
	defer func() {
		close(stop)
		if err := <-errc; err != nil {
			b.Error(err)
		}
	}()
	warm := eng.RebalanceStats().Moves
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Rebalance(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(eng.RebalanceStats().Moves-warm)/float64(b.N), "moves/op")
}

// BenchmarkSubmitBursts measures ingest on bursts larger than a batch,
// shaped like skew-rebalance's: one warm A_Rand N=64 tenant at BatchSize
// 1024, with Submits alternating between that workload's floor burst of
// 1152 events (1⅛ batches) and 5·1024+128. Each burst departs the
// tenant's oldest live tasks and arrives as many new ones, so the stream
// never ends and the tenant holds 512 tasks throughout. One op is one
// Submit; events/s counts the events submitted.
func BenchmarkSubmitBursts(b *testing.B) {
	const (
		batch = 1024
		live  = 512
	)
	bursts := [2]int{batch + batch/8, 5*batch + batch/8}
	eng := New(Config{Shards: 1, BatchSize: batch})
	if err := eng.AddTenant("t", core.NewRandom(tree.MustNew(64), 1)); err != nil {
		b.Fatal(err)
	}
	var (
		ring   [live]task.Event // slot i holds the arrival it departs next
		next   int
		nextID task.ID
	)
	evs := make([]task.Event, 0, bursts[1])
	// fill appends n events to evs: a departure of the task in the next
	// ring slot, when it holds one, then an arrival into that slot.
	fill := func(n int) {
		for len(evs) < n {
			slot := &ring[next%live]
			if slot.Task != 0 {
				evs = append(evs, task.Event{Kind: task.Depart, Task: slot.Task, Size: slot.Size})
			}
			nextID++
			*slot = task.Event{Kind: task.Arrive, Task: nextID, Size: 1 << (nextID % 5)}
			evs = append(evs, *slot)
			next++
		}
	}
	fill(live) // arrivals only: the ring fills up
	if err := eng.Submit("t", evs...); err != nil {
		b.Fatal(err)
	}
	var events int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		evs = evs[:0]
		fill(bursts[i%2])
		if err := eng.Submit("t", evs...); err != nil {
			b.Fatal(err)
		}
		events += int64(len(evs))
	}
	b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/s")
}
