package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"partalloc"
	"partalloc/internal/wal"
)

// flightEvents sizes the traced run's flight recorder.
const flightEvents = 4096

// runner drives rounds of one workload over one generated fleet. A round
// builds a fresh engine, runs the closed loop until every stream is
// consumed, and checks the result; rounds repeat until the run's time is
// up, so every metric is a median over rounds of the same input.
type runner struct {
	w       *workload
	f       *fleet
	plans   [][]call // one per client
	refs    []serialRef
	scratch string // journal directories, removed as rounds finish
	tr      *tracer
	probe   *hostProbe
	first   [][]byte                  // the first round's canonical ledgers
	flight  *partalloc.FlightRecorder // the last traced round's
}

func newRunner(w *workload, f *fleet, scratch string) (*runner, error) {
	r := &runner{w: w, f: f, scratch: scratch, tr: newTracer(), probe: newHostProbe()}
	for c := 0; c < clients; c++ {
		r.plans = append(r.plans, w.schedule(f, c))
	}
	refs, err := serialRefs(w, f, r.plans)
	if err != nil {
		return nil, err
	}
	r.refs = refs
	return r, nil
}

// roundResult is everything one round measured and the ledgers it left.
type roundResult struct {
	traced     bool
	setupNs    int64
	probeNs    int64 // the host probe's time, taken before set-up
	wallNs     int64
	lat        []int64 // per-call latency in ns, both clients
	attempted  int64
	failed     int64
	allocBytes uint64
	stats      []partalloc.EngineTenantStats
	shardStats []partalloc.EngineShardStats
	rebalance  partalloc.RebalanceStats
	routes     map[string]int

	// Journal workloads: recovery over the round's log.
	recovered   []partalloc.EngineTenantStats
	recoverNs   int64
	recStats    partalloc.RecoveryStats
	replayNs    int64 // traced: wal.Replay over the finished log
	replayBytes int64

	// Traced rounds: the engine's registries and the calls during which
	// a rebalance pass completed.
	metrics    *partalloc.Metrics
	recMetrics *partalloc.Metrics
	passCalls  []int64
}

// round runs round k. A failed call or gate is returned as an error.
func (r *runner) round(k int, traced bool) (*roundResult, error) {
	w, f := r.w, r.f
	res := &roundResult{traced: traced}
	// The host probe runs before this round's engine exists and after the
	// last round's garbage is collected, so no engine work runs beside it.
	runtime.GC()
	res.probeNs = r.probe.run()
	tr := r.tr.on(traced)
	root := tr.begin(0, "round", "")

	var extra []partalloc.EngineOption
	if traced {
		res.metrics = partalloc.NewMetrics()
		extra = append(extra, partalloc.WithMetrics(res.metrics), partalloc.WithFlightRecorder(flightEvents))
	}
	dir := filepath.Join(r.scratch, fmt.Sprintf("round-%04d", k))
	if w.journal {
		extra = append(extra, partalloc.WithJournal(dir))
		defer os.RemoveAll(dir)
	}

	setup := tr.begin(root.id, "setup", "")
	t0 := time.Now()
	sp := tr.begin(setup.id, "engine.new", "")
	eng, err := partalloc.NewEngine(w.engineOptions(extra...)...)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	for i, id := range f.ids {
		sp := tr.begin(setup.id, "engine.add_tenant", id)
		err := addTenant(w, f, eng, i)
		tr.end(sp)
		if err != nil {
			eng.Close()
			return nil, err
		}
	}
	res.setupNs = int64(time.Since(t0))
	tr.end(setup)

	// Collect the set-up's garbage now, not inside the measured phase.
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	ingest := tr.begin(root.id, "ingest", "")
	outs := make([]clientOut, clients)
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			outs[c] = r.drive(eng, c, traced, ingest.id)
		}(c)
	}
	wg.Wait()
	res.wallNs = int64(time.Since(start))
	runtime.ReadMemStats(&after)
	tr.end(ingest)
	res.allocBytes = after.TotalAlloc - before.TotalAlloc

	var firstErr error
	for _, o := range outs {
		res.lat = append(res.lat, o.lat...)
		res.failed += o.failed
		res.passCalls = append(res.passCalls, o.passCalls...)
		r.tr.add(o.spans)
		if firstErr == nil {
			firstErr = o.err
		}
	}
	res.attempted = int64(len(res.lat))
	res.stats = eng.Stats()
	res.shardStats = eng.ShardStats()
	res.rebalance = eng.RebalanceStats()
	res.routes = eng.Routes()
	if traced {
		r.flight = eng.FlightRecorder()
	}
	sp = tr.begin(root.id, "engine.close", "")
	err = eng.Close()
	tr.end(sp)
	if err != nil {
		return res, err
	}
	if firstErr != nil {
		return res, firstErr
	}

	if w.journal {
		if err := r.recover(res, dir, tr, root.id); err != nil {
			return res, err
		}
	}
	tr.end(root)
	return res, r.check(res)
}

// addTenant registers tenant i as the fleet defines it.
func addTenant(w *workload, f *fleet, eng *partalloc.Engine, i int) error {
	algo, opts, err := w.alloc(i, w.n, f.seeds[i])
	if err != nil {
		return err
	}
	m, err := partalloc.NewMachine(w.n)
	if err != nil {
		return err
	}
	return eng.AddTenant(f.ids[i], algo, m, opts...)
}

// recover times RecoverEngine over the round's closed journal, and in a
// traced round first times a bare wal.Replay scan of the same log.
func (r *runner) recover(res *roundResult, dir string, tr *tracer, parent int64) error {
	var extra []partalloc.EngineOption
	if res.traced {
		sp := tr.begin(parent, "wal.replay", "")
		t0 := time.Now()
		err := wal.Replay(dir, func(int, wal.Record) error { return nil })
		res.replayNs = int64(time.Since(t0))
		tr.end(sp)
		if err != nil {
			return err
		}
		n, err := dirBytes(dir)
		if err != nil {
			return err
		}
		res.replayBytes = n
		res.recMetrics = partalloc.NewMetrics()
		extra = append(extra, partalloc.WithMetrics(res.recMetrics))
	}
	sp := tr.begin(parent, "engine.recover", "")
	t0 := time.Now()
	rec, err := partalloc.RecoverEngine(dir, r.w.engineOptions(extra...)...)
	res.recoverNs = int64(time.Since(t0))
	tr.end(sp)
	if err != nil {
		return err
	}
	res.recovered = rec.Stats()
	res.recStats = rec.RecoveryStats()
	return rec.Close()
}

// dirBytes sums the sizes of the files in dir.
func dirBytes(dir string) (int64, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var n int64
	for _, e := range ents {
		info, err := e.Info()
		if err != nil {
			return 0, err
		}
		n += info.Size()
	}
	return n, nil
}

// check applies every gate that fits the workload to a finished round;
// the first round it passes becomes the reference for the later ones.
func (r *runner) check(res *roundResult) error {
	if err := gateApplied(r.f, res.stats); err != nil {
		return err
	}
	if err := gateSerial(r.refs, res.stats); err != nil {
		return err
	}
	live := canonical(res.stats)
	if r.w.journal {
		if err := gateSameLedgers("recovery gate", live, canonical(res.recovered)); err != nil {
			return err
		}
	}
	if r.w.balanced {
		if err := gatePlacement(r.f.ids, r.w.shards, res.routes, res.shardStats, res.rebalance); err != nil {
			return err
		}
	}
	if r.first == nil {
		r.first = live
		return nil
	}
	return gateSameLedgers("repeat gate", r.first, live)
}

// clientOut is one client's share of a round.
type clientOut struct {
	lat       []int64
	failed    int64
	err       error
	spans     []span
	passCalls []int64
}

// drive runs client c's calls in order, each after the previous returns.
// A traced round also keeps a span per call and, on a balanced engine,
// reads the rebalance ledger around each call to find the calls during
// which a pass completed.
func (r *runner) drive(eng *partalloc.Engine, c int, traced bool, parent int64) clientOut {
	plan := r.plans[c]
	out := clientOut{lat: make([]int64, len(plan))}
	if traced {
		out.spans = make([]span, 0, len(plan))
	}
	watchPasses := traced && r.w.balanced
	for k, cl := range plan {
		id := r.f.ids[cl.tenant]
		var passes int64
		if watchPasses {
			passes = eng.RebalanceStats().Passes
		}
		name := "engine.submit"
		var err error
		start := r.tr.now()
		if cl.evs == nil {
			name = "engine.flush"
			err = eng.Flush(id)
		} else {
			err = eng.Submit(id, cl.evs...)
		}
		end := r.tr.now()
		out.lat[k] = end - start
		if traced {
			out.spans = append(out.spans, span{id: r.tr.nextID(), parent: parent, name: name, tenant: id, client: c, start: start, end: end})
		}
		if watchPasses && eng.RebalanceStats().Passes != passes {
			out.passCalls = append(out.passCalls, end-start)
		}
		if err != nil {
			out.fail(id, err)
		}
	}
	return out
}

func (o *clientOut) fail(id string, err error) {
	o.failed++
	if o.err == nil {
		o.err = fmt.Errorf("tenant %s: %w", id, err)
	}
}
