package engine

import (
	"context"
	"testing"

	"partalloc/internal/core"
	"partalloc/internal/sim"
	"partalloc/internal/task"
	"partalloc/internal/tree"
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
