package main

import (
	"fmt"
	"math"
	"math/rand"

	"partalloc"
)

// clients is the closed loop's client count. Each client owns a fixed
// half of the tenants and issues its next call only after the previous
// one returns: Submit and Flush apply batches on the caller's goroutine,
// so a caller that waits is the model that matches the engine.
const clients = 2

// workload fixes one engine configuration, its tenant fleet and the way
// the clients feed it. Only the tests shrink stream sizes; everything
// else is the workload's identity.
type workload struct {
	name    string
	tenants int
	n       int // PEs per tenant machine
	shards  int
	batch   int
	// journal selects a journal with WithSnapshotEvery(16) and 1 MiB
	// segments; the round ends with RecoverEngine over the log.
	journal bool
	// balanced selects PlacementBalanced with d=1 and a pass every 32
	// batches; passes run inline in the Submit or Flush that crosses
	// the cadence.
	balanced bool
	// meanDuration is the Poisson streams' mean service time (0 keeps the
	// generator's default).
	meanDuration float64
	// arrivals is tenant i's Poisson arrival count at scale 1.
	arrivals func(i int) int
	// alloc picks tenant i's algorithm and options; seed is the tenant's
	// own seed, drawn from the run's seed.
	alloc func(i, n int, seed int64) (partalloc.Algorithm, []partalloc.Option, error)
	// burst is the events per Submit for a stream of the given length.
	burst func(streamLen int) int
	// flushEvery makes each client Flush its tenants every flushEvery
	// rounds of bursts, like a deadline; 0 flushes only at the end.
	flushEvery int
}

const (
	snapshotEvery  = 16
	segmentBytes   = 1 << 20
	rebalanceD     = 1
	rebalanceEvery = 32
)

// workloads are the benchmark's three traffic mixes. Each stresses a
// different layer and bypasses the others, so a change to one layer has
// a workload that should move and one that should not.
var workloads = []*workload{
	{
		// The allocator is cheap; each call pays the journal record on
		// the engine-wide journal lock, plus snapshots and compaction.
		// Recovery then reads the log the workload wrote.
		name: "journal-ingest", tenants: 16, n: 1024, shards: 4, batch: 256,
		journal:  true,
		arrivals: func(int) int { return 8000 },
		alloc:    randomAlloc,
		burst:    func(int) int { return 32 },
	},
	{
		// Reallocation in copies/A_R dominates: one full batch per call,
		// no journal, fixed placement.
		name: "realloc-submit", tenants: 8, n: 256, shards: 2, batch: 256,
		meanDuration: 40,
		arrivals:     func(int) int { return 80000 },
		alloc:        reallocAlloc,
		burst:        func(int) int { return 256 },
	},
	{
		// Zipf-sized fleet under balanced placement: rebalance passes run
		// inline in the calling Submit, and moves rebox tenants through
		// the snapshot codec. No burst is smaller than a batch, so every
		// Submit applies at least one: were light tenants' bursts only
		// queued, call latency would split into an enqueue mode and an
		// apply mode with the median between them, where it swings with
		// every change in lock contention. The floor is an eighth of a
		// batch over it, so light tenants keep a partial batch for their
		// deadline flushes to apply.
		name: "skew-rebalance", tenants: 48, n: 64, shards: 8, batch: 1024,
		balanced:   true,
		arrivals:   zipfArrivals(120000, 0.8, 4000),
		alloc:      randomAlloc,
		burst:      proportionalBurst(48, 1024+1024/8),
		flushEvery: 4,
	},
}

// lookupWorkload finds a workload by name.
func lookupWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, names)
}

func randomAlloc(_, _ int, seed int64) (partalloc.Algorithm, []partalloc.Option, error) {
	return partalloc.AlgoRandom, []partalloc.Option{partalloc.WithSeed(seed)}, nil
}

// reallocAlloc alternates A_M(2) and A_M-lazy(2) on the tree topology,
// so migrations are priced in hops. The alternation runs over each
// client's own tenants: A_M migrates several times more than A_M-lazy,
// and a client holding only A_M tenants would leave the other idle for
// most of the round.
func reallocAlloc(i, n int, _ int64) (partalloc.Algorithm, []partalloc.Option, error) {
	top, err := partalloc.NewTopology("tree", n)
	if err != nil {
		return 0, nil, err
	}
	algo := partalloc.AlgoPeriodic
	if (i/clients)%2 == 1 {
		algo = partalloc.AlgoLazy
	}
	return algo, []partalloc.Option{partalloc.WithD(2), partalloc.WithTopology(top)}, nil
}

// zipfArrivals gives tenant i base/(i+1)^s arrivals, never below floor:
// a few heavy tenants and a long light tail.
func zipfArrivals(base int, s float64, floor int) func(int) int {
	return func(i int) int {
		return max(floor, int(float64(base)/math.Pow(float64(i+1), s)))
	}
}

// proportionalBurst cuts a stream into about parts bursts of at least
// floor events, so a heavy tenant sends heavy bursts.
func proportionalBurst(parts, floor int) func(int) int {
	return func(streamLen int) int {
		return max(floor, (streamLen+parts-1)/parts)
	}
}

// fleet is a workload's generated input: one Poisson stream per tenant.
// The engine sees only these events.
type fleet struct {
	ids     []string // sorted, as Engine.Stats orders tenants
	seeds   []int64
	streams [][]partalloc.Event
	events  int64
}

// generate draws the fleet from seed. scale multiplies every stream's
// arrival count (1 for measurement, small for smoke tests).
func (w *workload) generate(seed int64, scale float64) *fleet {
	rng := rand.New(rand.NewSource(seed))
	f := &fleet{}
	for i := 0; i < w.tenants; i++ {
		s := rng.Int63()
		arr := max(16, int(math.Round(float64(w.arrivals(i))*scale)))
		seq := partalloc.PoissonWorkload(partalloc.WorkloadConfig{
			N: w.n, Arrivals: arr, MeanDuration: w.meanDuration, Seed: s,
		})
		f.ids = append(f.ids, fmt.Sprintf("t%02d", i))
		f.seeds = append(f.seeds, s)
		f.streams = append(f.streams, seq.Events)
		f.events += int64(len(seq.Events))
	}
	return f
}

// call is one client request: a Submit of evs, or a Flush when evs is nil.
type call struct {
	tenant int
	evs    []partalloc.Event
}

// schedule lays out client c's calls in order. The client owns every
// tenant i with i mod clients == c and visits them round-robin, one burst
// each. Every flushEvery rounds it flushes the tenants that hold a partial
// batch, and at the end it flushes each that still does, so every
// submitted event is applied and no Flush finds an empty queue.
func (w *workload) schedule(f *fleet, c int) []call {
	var own []int
	for i := c; i < len(f.streams); i += clients {
		own = append(own, i)
	}
	off := make([]int, len(f.streams))
	queued := make([]int, len(f.streams)) // the engine's queue after each call
	var calls []call
	flush := func() {
		for _, i := range own {
			if queued[i] > 0 {
				calls = append(calls, call{tenant: i})
				queued[i] = 0
			}
		}
	}
	for round := 1; ; round++ {
		sent := false
		for _, i := range own {
			evs := f.streams[i]
			if off[i] >= len(evs) {
				continue
			}
			end := min(len(evs), off[i]+w.burst(len(evs)))
			calls = append(calls, call{tenant: i, evs: evs[off[i]:end]})
			queued[i] = (queued[i] + end - off[i]) % w.batch
			off[i], sent = end, true
		}
		if !sent {
			break
		}
		if w.flushEvery > 0 && round%w.flushEvery == 0 {
			flush()
		}
	}
	flush()
	return calls
}

// engineOptions is the workload's engine configuration; extra carries
// the journal directory and the traced run's observability options.
func (w *workload) engineOptions(extra ...partalloc.EngineOption) []partalloc.EngineOption {
	opts := []partalloc.EngineOption{
		partalloc.WithShards(w.shards), partalloc.WithBatchSize(w.batch),
	}
	if w.journal {
		// JournalSyncNever, the default: every Submit still appends its
		// record under the engine-wide journal lock, but no append waits
		// on fsync. On a shared disk fsync latency doubled for minutes at
		// a time, and with it call p99; the benchmark would have measured
		// the neighbours' disk traffic.
		opts = append(opts,
			partalloc.WithJournalSync(partalloc.JournalSyncNever),
			partalloc.WithSnapshotEvery(snapshotEvery),
			partalloc.WithJournalSegmentBytes(segmentBytes))
	}
	if w.balanced {
		opts = append(opts,
			partalloc.WithPlacement(partalloc.PlacementBalanced),
			partalloc.WithRebalanceD(rebalanceD),
			partalloc.WithRebalanceEvery(rebalanceEvery))
	}
	return append(opts, extra...)
}

// newTenantAllocator builds tenant i's allocator exactly as AddTenant
// does, for the serial reference runs and the snapshot codec probe.
func (w *workload) newTenantAllocator(f *fleet, i int) (partalloc.Allocator, error) {
	algo, opts, err := w.alloc(i, w.n, f.seeds[i])
	if err != nil {
		return nil, err
	}
	m, err := partalloc.NewMachine(w.n)
	if err != nil {
		return nil, err
	}
	return partalloc.New(algo, m, opts...)
}
