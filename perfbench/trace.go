package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"partalloc"
	"partalloc/internal/core"
)

// maxSpans caps the spans a run keeps in memory; later ones are counted
// as dropped.
const maxSpans = 1 << 18

// span is one timed call from the benchmark into a layer's public
// function. Every client call is its own request, so a call's span id is
// also its request id; its parent is the round phase it ran in.
type span struct {
	id, parent   int64
	name, tenant string
	client       int // -1 for the benchmark's own goroutine
	start, end   int64
}

// tracer keeps the traced rounds' spans in memory; they are written out
// once the run ends. A nil *tracer records nothing.
type tracer struct {
	epoch   time.Time
	ids     atomic.Int64
	mu      sync.Mutex
	spans   []span
	dropped int
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// on returns t for a traced round and nil otherwise.
func (t *tracer) on(traced bool) *tracer {
	if !traced {
		return nil
	}
	return t
}

// now is nanoseconds since the run's trace epoch.
func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) nextID() int64 { return t.ids.Add(1) }

// begin opens a span on the benchmark's own goroutine.
func (t *tracer) begin(parent int64, name, tenant string) span {
	if t == nil {
		return span{}
	}
	return span{id: t.nextID(), parent: parent, name: name, tenant: tenant, client: -1, start: t.now()}
}

// end closes s and keeps it.
func (t *tracer) end(s span) {
	if t == nil {
		return
	}
	s.end = t.now()
	t.add([]span{s})
}

func (t *tracer) add(ss []span) {
	if t == nil || len(ss) == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	room := maxSpans - len(t.spans)
	if len(ss) > room {
		t.dropped += len(ss) - room
		ss = ss[:room]
	}
	t.spans = append(t.spans, ss...)
}

// writeJSONL writes every kept span, ordered by start time, one JSON
// object per line.
func (t *tracer) writeJSONL(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	sort.Slice(t.spans, func(i, j int) bool { return t.spans[i].start < t.spans[j].start })
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range t.spans {
		err := enc.Encode(struct {
			ID     int64  `json:"id"`
			Parent int64  `json:"parent"`
			Name   string `json:"name"`
			Tenant string `json:"tenant,omitempty"`
			Client int    `json:"client"`
			Start  int64  `json:"start_ns"`
			End    int64  `json:"end_ns"`
		}{s.id, s.parent, s.name, s.tenant, s.client, s.start, s.end})
		if err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layerMetrics derives one traced round's per-layer figures from the
// engine's ledgers (Stats, ShardStats, RecoveryStats), its metric series
// (partalloc_wal_*, partalloc_snapshot_*, partalloc_recovery_*,
// partalloc_rebalance_*) and the benchmark's own call timings.
func layerMetrics(res *roundResult) (map[string]float64, error) {
	prom, err := scrapeMetrics(res.metrics)
	if err != nil {
		return nil, err
	}
	recProm, err := scrapeMetrics(res.recMetrics)
	if err != nil {
		return nil, err
	}
	var events, batches, applyNs, reallocs, migrations, migHops int64
	var batchNs []int64
	var loadMax float64
	for _, st := range res.stats {
		loadMax = max(loadMax, ratio(float64(st.PeakLoad), float64(st.LStar)))
		events += st.Events
		batches += st.Batches
		applyNs += st.ApplyNs
		reallocs += int64(st.Realloc.Reallocations)
		migrations += st.Realloc.Migrations
		migHops += st.MigHops
		batchNs = append(batchNs, st.BatchNs...)
	}
	batchNs = sortedCopy(batchNs)
	var callNs int64
	for _, l := range res.lat {
		callNs += l
	}
	var peakQueue int
	var maxApply, sumApply int64
	for _, ss := range res.shardStats {
		peakQueue = max(peakQueue, ss.PeakQueued)
		maxApply = max(maxApply, ss.ApplyNs)
		sumApply += ss.ApplyNs
	}
	var passCallNs int64
	for _, l := range res.passCalls {
		passCallNs += l
	}
	ev, calls := float64(events), float64(len(res.lat))
	return map[string]float64{
		"engine.calls":                calls,
		"engine.batches":              float64(batches),
		"engine.events_per_batch":     ratio(ev, float64(batches)),
		"engine.apply_p50_us":         float64(quantile(batchNs, 0.50)) / 1e3,
		"engine.apply_p99_us":         float64(quantile(batchNs, 0.99)) / 1e3,
		"engine.nonapply_us_per_call": ratio(float64(callNs-applyNs), calls) / 1e3,
		"engine.hot_shard_peak_queue": float64(peakQueue),
		"engine.shard_apply_skew":     ratio(float64(maxApply), float64(sumApply)/float64(len(res.shardStats))),

		"wal.appends":         prom.sum("partalloc_wal_appends_total"),
		"wal.bytes_per_event": ratio(prom.sum("partalloc_wal_append_bytes_total"), ev),
		"wal.append_p50_us":   prom.quantile("partalloc_wal_append_latency_seconds", 0.50) * 1e6,
		"wal.append_p99_us":   prom.quantile("partalloc_wal_append_latency_seconds", 0.99) * 1e6,
		"wal.rotations":       prom.sum("partalloc_wal_segment_rotations_total"),
		"wal.replay_mb_per_s": ratio(float64(res.replayBytes)/1e6, float64(res.replayNs)/1e9),

		"snapshot.taken":              prom.sum("partalloc_snapshot_taken_total"),
		"snapshot.bytes_mean":         prom.meanNonZero("partalloc_snapshot_bytes"),
		"snapshot.segments_truncated": prom.sum("partalloc_snapshot_segments_truncated_total"),

		"recovery.recover_s":           float64(res.recoverNs) / 1e9,
		"recovery.records_scanned":     float64(res.recStats.RecordsScanned),
		"recovery.records_skipped":     recProm.sum("partalloc_recovery_records_skipped_total"),
		"recovery.records_replayed":    recProm.sum("partalloc_recovery_records_replayed_total"),
		"recovery.snapshots_restored":  recProm.sum("partalloc_recovery_snapshots_restored_total"),
		"core.apply_ns_per_event":      ratio(float64(applyNs), ev),
		"core.reallocations":           float64(reallocs),
		"core.migrations":              float64(migrations),
		"core.mig_hops_per_event":      ratio(float64(migHops), ev),
		"core.load_ratio_max":          loadMax,
		"placement.passes":             prom.sum("partalloc_rebalance_passes_total"),
		"placement.planned":            prom.sum("partalloc_rebalance_moves_planned_total"),
		"placement.moves":              prom.sum("partalloc_rebalance_moves_total"),
		"placement.pass_call_us":       ratio(float64(passCallNs), float64(len(res.passCalls))) / 1e3,
		"placement.pass_call_fraction": ratio(float64(len(res.passCalls)), calls),
	}, nil
}

// codecProbeTenants and codecProbeReps bound the snapshot codec probe.
const (
	codecProbeTenants = 16
	codecProbeReps    = 8
)

// probeCodec times core.Checkpointable's Snapshot and Restore on tenant
// allocators brought to the middle of their streams. Every stream drains
// to an empty machine at its end, so the midpoint, in the Poisson
// process's steady state, is where the engine's own snapshots find them.
// It returns the median encode and restore times in µs.
func probeCodec(w *workload, f *fleet, tr *tracer) (encodeUs, restoreUs float64, err error) {
	probe := tr.begin(0, "codec_probe", "")
	defer tr.end(probe)
	var enc, dec []int64
	for i := 0; i < min(len(f.streams), codecProbeTenants); i++ {
		a, err := w.newTenantAllocator(f, i)
		if err != nil {
			return 0, 0, err
		}
		evs := f.streams[i]
		partalloc.Simulate(a, partalloc.Sequence{Events: evs[:len(evs)/2]}, partalloc.SimOptions{})
		ck, ok := a.(core.Checkpointable)
		if !ok {
			return 0, 0, fmt.Errorf("codec probe: %s allocator is not checkpointable", a.Name())
		}
		for k := 0; k < codecProbeReps; k++ {
			fresh, err := w.newTenantAllocator(f, i)
			if err != nil {
				return 0, 0, err
			}
			sp := tr.begin(probe.id, "snapshot.encode", f.ids[i])
			t0 := time.Now()
			data := ck.Snapshot()
			enc = append(enc, int64(time.Since(t0)))
			tr.end(sp)
			sp = tr.begin(probe.id, "snapshot.restore", f.ids[i])
			t0 = time.Now()
			err = fresh.(core.Checkpointable).Restore(data)
			dec = append(dec, int64(time.Since(t0)))
			tr.end(sp)
			if err != nil {
				return 0, 0, fmt.Errorf("codec probe: restore %s: %w", f.ids[i], err)
			}
		}
	}
	return float64(quantile(sortedCopy(enc), 0.5)) / 1e3, float64(quantile(sortedCopy(dec), 0.5)) / 1e3, nil
}
