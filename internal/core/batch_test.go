package core

import (
	"math/rand"
	"reflect"
	"testing"

	"partalloc/internal/task"
	"partalloc/internal/tree"
	"partalloc/internal/workload"
)

// batchFactories enumerates the allocators that implement BatchApplier,
// paired with a twin-constructor so batch and serial runs start identical.
func batchFactories(m *tree.Machine) map[string]func() Allocator {
	return map[string]func() Allocator{
		"A_B":            func() Allocator { return NewBasic(m) },
		"A_C":            func() Allocator { return NewConstant(m) },
		"A_M(d=2)":       func() Allocator { return NewPeriodic(m, 2, DecreasingSize) },
		"A_M(d=inf)":     func() Allocator { return NewPeriodic(m, -1, DecreasingSize) },
		"A_M-lazy(d=1)":  func() Allocator { return NewLazy(m, 1, DecreasingSize) },
		"A_Rand":         func() Allocator { return NewRandom(m, 7) },
		"A_Rand(seed=1)": func() Allocator { return NewRandom(m, 1) },
	}
}

// TestApplyBatchMatchesSerial replays the same random event stream through
// ApplyBatch (varied batch sizes) and through the per-event loop, and
// requires identical final PE loads, active sets, placements, and — for
// reallocators — identical ReallocStats. This is the guarantee the engine
// relies on: batching amortizes bookkeeping without changing behaviour.
func TestApplyBatchMatchesSerial(t *testing.T) {
	m := tree.MustNew(64)
	seq := randomEventStream(m.N(), 2000, 99)

	for name, mk := range batchFactories(m) {
		for _, batchSize := range []int{1, 7, 64, 500, len(seq)} {
			serial := mk()
			batch := mk()
			ba, ok := batch.(BatchApplier)
			if !ok {
				t.Fatalf("%s does not implement BatchApplier", name)
			}
			ApplyEvents(serial, seq)
			for i := 0; i < len(seq); i += batchSize {
				end := i + batchSize
				if end > len(seq) {
					end = len(seq)
				}
				ba.ApplyBatch(seq[i:end])
			}
			if got, want := batch.PELoads(), serial.PELoads(); !reflect.DeepEqual(got, want) {
				t.Errorf("%s batchSize=%d: PELoads = %v, serial %v", name, batchSize, got, want)
			}
			if got, want := batch.MaxLoad(), serial.MaxLoad(); got != want {
				t.Errorf("%s batchSize=%d: MaxLoad = %d, serial %d", name, batchSize, got, want)
			}
			if got, want := batch.Active(), serial.Active(); got != want {
				t.Errorf("%s batchSize=%d: Active = %d, serial %d", name, batchSize, got, want)
			}
			sr, srOK := serial.(Reallocator)
			br, brOK := batch.(Reallocator)
			if srOK != brOK {
				t.Fatalf("%s: Reallocator asymmetry", name)
			}
			if srOK {
				if got, want := br.ReallocStats(), sr.ReallocStats(); got != want {
					t.Errorf("%s batchSize=%d: ReallocStats = %+v, serial %+v", name, batchSize, got, want)
				}
			}
			// Spot-check placements of every active task.
			for _, e := range seq {
				sv, sok := serial.Placement(e.Task)
				bv, bok := batch.Placement(e.Task)
				if sok != bok || sv != bv {
					t.Errorf("%s batchSize=%d: task %d placement = (%d,%v), serial (%d,%v)",
						name, batchSize, e.Task, bv, bok, sv, sok)
				}
			}
		}
	}
}

// randomEventStream builds a valid random event stream: power-of-two sizes
// up to n, departures of previously-arrived active tasks.
func randomEventStream(n, events int, seed int64) []task.Event {
	rng := rand.New(rand.NewSource(seed))
	var (
		evs    []task.Event
		active []task.Event
		nextID task.ID = 1
	)
	maxExp := 0
	for 1<<(maxExp+1) <= n {
		maxExp++
	}
	for len(evs) < events {
		if len(active) > 0 && rng.Intn(3) == 0 {
			i := rng.Intn(len(active))
			a := active[i]
			active = append(active[:i], active[i+1:]...)
			evs = append(evs, task.Event{Kind: task.Depart, Task: a.Task, Size: a.Size, Time: float64(len(evs))})
			continue
		}
		e := task.Event{Kind: task.Arrive, Task: nextID, Size: 1 << rng.Intn(maxExp+1), Time: float64(len(evs))}
		nextID++
		active = append(active, e)
		evs = append(evs, e)
	}
	return evs
}

// BenchmarkApplySerial and BenchmarkApplyBatch measure the per-event
// bookkeeping cost the deferred load tree removes. Run via `make bench`.
func BenchmarkApplySerial(b *testing.B) {
	benchApply(b, false)
}

func BenchmarkApplyBatch(b *testing.B) {
	benchApply(b, true)
}

func benchApply(b *testing.B, batched bool) {
	m := tree.MustNew(256)
	seq := randomEventStream(m.N(), 5000, 42)
	for _, mk := range []struct {
		name string
		new  func() Allocator
	}{
		{"A_B", func() Allocator { return NewBasic(m) }},
		{"A_M(d=4)", func() Allocator { return NewPeriodic(m, 4, DecreasingSize) }},
		{"A_M-lazy(d=4)", func() Allocator { return NewLazy(m, 4, DecreasingSize) }},
		{"A_Rand", func() Allocator { return NewRandom(m, 7) }},
	} {
		b.Run(mk.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				a := mk.new()
				if batched {
					a.(BatchApplier).ApplyBatch(seq)
				} else {
					ApplyEvents(a, seq)
					a.MaxLoad()
				}
			}
			b.ReportMetric(float64(len(seq))*float64(b.N)/b.Elapsed().Seconds(), "events/s")
		})
	}
}

// churnShape is a per-tenant shape of the benchmark workloads: an
// allocator on an n-PE machine under Poisson churn at one arrival per time
// unit, so the mean service time is also the mean live task count.
type churnShape struct {
	name string
	n    int
	mean float64
	new  func(*tree.Machine) Allocator
}

// churnShapes are skew-rebalance's A_Rand tenants (n=64, about 10 live
// tasks) and realloc-submit's tenant shape (n=256, about 40) under A_B,
// A_M(2) and A_M-lazy(2).
var churnShapes = []churnShape{
	{"A_Rand/n=64", 64, 10, func(m *tree.Machine) Allocator { return NewRandom(m, 7) }},
	{"A_B/n=256", 256, 40, func(m *tree.Machine) Allocator { return NewBasic(m) }},
	{"A_M(d=2)/n=256", 256, 40, func(m *tree.Machine) Allocator { return NewPeriodic(m, 2, DecreasingSize) }},
	{"A_M-lazy(d=2)/n=256", 256, 40, func(m *tree.Machine) Allocator { return NewLazy(m, 2, DecreasingSize) }},
}

// warmChurn cuts a Poisson stream for s into 256-event batches and applies
// them all once. The stream ends with every task departed, so cycling
// through the batches again is steady churn; the returned function
// applies the next batch and returns its length.
func warmChurn(s churnShape) func() int {
	evs := workload.Poisson(workload.Config{N: s.n, Arrivals: 4096, MeanDuration: s.mean, Seed: 1}).Events
	var batches [][]task.Event
	for ; len(evs) > 0; evs = evs[min(256, len(evs)):] {
		batches = append(batches, evs[:min(256, len(evs))])
	}
	a := s.new(tree.MustNew(s.n)).(BatchApplier)
	for _, b := range batches {
		a.ApplyBatch(b)
	}
	k := 0
	return func() int {
		b := batches[k]
		a.ApplyBatch(b)
		k = (k + 1) % len(batches)
		return len(b)
	}
}

// BenchmarkChurn times warm 256-event batches at each churn shape. Unlike
// BenchmarkApplyBatch it builds the allocator once, so neither
// construction nor buffer growth is timed.
func BenchmarkChurn(b *testing.B) {
	for _, s := range churnShapes {
		b.Run(s.name, func(b *testing.B) {
			next := warmChurn(s)
			b.ReportAllocs()
			b.ResetTimer()
			events := 0
			for i := 0; i < b.N; i++ {
				events += next()
			}
			b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/s")
		})
	}
}

// TestChurnAllocationFree requires a warm batch at each churn shape to
// allocate less than once on average.
func TestChurnAllocationFree(t *testing.T) {
	for _, s := range churnShapes {
		next := warmChurn(s)
		if allocs := testing.AllocsPerRun(64, func() { next() }); allocs >= 1 {
			t.Errorf("%s: %v allocations per warm batch, want < 1", s.name, allocs)
		}
	}
}
