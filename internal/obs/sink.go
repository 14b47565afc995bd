package obs

import (
	"io"
	"strconv"
	"sync"
	"time"
)

// Metric families exported by the engine's Sink. One table so code and
// docs/OBSERVABILITY.md cannot drift apart.
const (
	MetricTenantEvents        = "partalloc_tenant_events_total"
	MetricTenantBatches       = "partalloc_tenant_batches_total"
	MetricTenantMaxLoad       = "partalloc_tenant_max_load"
	MetricTenantPeakLoad      = "partalloc_tenant_peak_load"
	MetricTenantLStar         = "partalloc_tenant_lstar"
	MetricTenantQueueDepth    = "partalloc_tenant_queue_depth"
	MetricTenantMigHops       = "partalloc_tenant_mig_hops"
	MetricTenantForcedHops    = "partalloc_tenant_forced_hops"
	MetricTenantShed          = "partalloc_tenant_shed_events_total"
	MetricTenantDropped       = "partalloc_tenant_dropped_events_total"
	MetricTenantDegradeLevel  = "partalloc_tenant_degrade_level"
	MetricTenantEffectiveD    = "partalloc_tenant_effective_d"
	MetricTenantBreakerState  = "partalloc_tenant_breaker_state"
	MetricTenantBreakerTrips  = "partalloc_tenant_breaker_trips_total"
	MetricTenantBreakerHeals  = "partalloc_tenant_breaker_heals_total"
	MetricTenantBreakerProbes = "partalloc_tenant_breaker_probes_total"
	MetricTenantApplyLatency  = "partalloc_tenant_apply_latency_seconds"
	MetricShardApplyLatency   = "partalloc_shard_apply_latency_seconds"
	MetricForcedMigrations    = "partalloc_tenant_forced_migrations_total"

	MetricWALAppendLatency = "partalloc_wal_append_latency_seconds"
	MetricWALAppendBytes   = "partalloc_wal_append_bytes_total"
	MetricWALAppends       = "partalloc_wal_appends_total"
	MetricWALFsyncLatency  = "partalloc_wal_fsync_latency_seconds"
	MetricWALFsyncs        = "partalloc_wal_fsyncs_total"
	MetricWALRotations     = "partalloc_wal_segment_rotations_total"
	MetricWALRepairs       = "partalloc_wal_torn_tail_repairs_total"

	MetricWatchdogTimeouts = "partalloc_parallel_watchdog_timeouts_total"
	MetricCellPanics       = "partalloc_parallel_panics_total"

	MetricSnapshots         = "partalloc_snapshot_taken_total"
	MetricSnapshotBytes     = "partalloc_snapshot_bytes"
	MetricSnapshotTruncated = "partalloc_snapshot_segments_truncated_total"
	MetricRecoveryRestored  = "partalloc_recovery_snapshots_restored_total"
	MetricRecoveryReplayed  = "partalloc_recovery_records_replayed_total"
	MetricRecoverySkipped   = "partalloc_recovery_records_skipped_total"
	MetricTenantMoves       = "partalloc_tenant_moves_total"

	MetricRebalancePasses     = "partalloc_rebalance_passes_total"
	MetricRebalancePlanned    = "partalloc_rebalance_moves_planned_total"
	MetricRebalanceMoves      = "partalloc_rebalance_moves_total"
	MetricRebalanceBudget     = "partalloc_rebalance_move_budget"
	MetricRebalanceViolations = "partalloc_rebalance_violations_total"
)

// tenantSeries caches every per-tenant series handle so the batch-apply
// hot path does one RLock'd map hit and then atomic stores only.
type tenantSeries struct {
	events, batches, shed, dropped *Counter
	trips, heals, probes, forced   *Counter
	snapshots                      *Counter
	maxLoad, peakLoad, lstar       *Gauge
	queueDepth, migHops, forced2   *Gauge
	degradeLevel, effectiveD       *Gauge
	breakerState, snapshotBytes    *Gauge
	applyLatency                   *Histogram
}

// A Sink is the nil-safe instrumentation surface the engine, WAL, and
// parallel runner call through. Every method is a no-op on a nil
// receiver, so the zero-config path stays allocation-free — callers hold
// a possibly-nil *Sink and never branch.
//
// Do not construct Sink directly; use NewSink (enforced outside the
// engine/facade by the obsbless lint).
type Sink struct {
	m  *Metrics
	fr *FlightRecorder

	mu     sync.RWMutex
	tens   map[string]*tenantSeries
	shards map[int]*Histogram
	dump   io.Writer
}

// NewSink wires a Sink over an optional registry and optional flight
// recorder. Both nil yields a nil Sink, keeping downstream nil-checks
// honest.
func NewSink(m *Metrics, fr *FlightRecorder) *Sink {
	if m == nil && fr == nil {
		return nil
	}
	return &Sink{
		m:      m,
		fr:     fr,
		tens:   make(map[string]*tenantSeries),
		shards: make(map[int]*Histogram),
	}
}

// Metrics returns the underlying registry (nil if none).
func (s *Sink) Metrics() *Metrics {
	if s == nil {
		return nil
	}
	return s.m
}

// FlightRecorder returns the underlying recorder (nil if none).
func (s *Sink) FlightRecorder() *FlightRecorder {
	if s == nil {
		return nil
	}
	return s.fr
}

// SetPoisonDump registers a writer that receives a full flight-recorder
// JSONL dump whenever a tenant's breaker trips.
func (s *Sink) SetPoisonDump(w io.Writer) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.dump = w
	s.mu.Unlock()
}

// Now returns the wall clock in nanoseconds, or 0 on a nil Sink so
// uninstrumented paths never pay for a clock read.
func (s *Sink) Now() int64 {
	if s == nil {
		return 0
	}
	return time.Now().UnixNano()
}

// tenant returns the cached series bundle for id, creating every series
// on first sight so all per-tenant families exist from the first scrape.
func (s *Sink) tenant(id string) *tenantSeries {
	s.mu.RLock()
	ts := s.tens[id]
	s.mu.RUnlock()
	if ts != nil {
		return ts
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if ts = s.tens[id]; ts != nil {
		return ts
	}
	l := L("tenant", id)
	m := s.m
	ts = &tenantSeries{}
	if m != nil {
		ts.events = m.Counter(MetricTenantEvents, "Events applied per tenant.", l)
		ts.batches = m.Counter(MetricTenantBatches, "Batches applied per tenant.", l)
		ts.shed = m.Counter(MetricTenantShed, "Events shed at admission under OverloadShed.", l)
		ts.dropped = m.Counter(MetricTenantDropped, "Events dropped rebuilding from the journaled safe prefix.", l)
		ts.trips = m.Counter(MetricTenantBreakerTrips, "Circuit-breaker trips (tenant poisonings).", l)
		ts.heals = m.Counter(MetricTenantBreakerHeals, "Successful half-open probes that healed the tenant.", l)
		ts.probes = m.Counter(MetricTenantBreakerProbes, "Half-open probe attempts.", l)
		ts.forced = m.Counter(MetricForcedMigrations, "Forced task migrations off failed PEs.", l)
		ts.maxLoad = m.Gauge(MetricTenantMaxLoad, "Current max per-PE load (threads on the busiest PE).", l)
		ts.peakLoad = m.Gauge(MetricTenantPeakLoad, "Peak max per-PE load observed over the run.", l)
		ts.lstar = m.Gauge(MetricTenantLStar, "Running optimal-load lower bound L* = ceil(active size / N).", l)
		ts.queueDepth = m.Gauge(MetricTenantQueueDepth, "Events buffered awaiting batch apply.", l)
		ts.migHops = m.Gauge(MetricTenantMigHops, "Cumulative reallocation migration hops.", l)
		ts.forced2 = m.Gauge(MetricTenantForcedHops, "Cumulative forced (fault) migration hops.", l)
		ts.degradeLevel = m.Gauge(MetricTenantDegradeLevel, "Degrade-ladder rung (0 = healthy).", l)
		ts.effectiveD = m.Gauge(MetricTenantEffectiveD, "Effective reallocation budget d after degradation.", l)
		ts.breakerState = m.Gauge(MetricTenantBreakerState, "Breaker state: 0 closed, 1 open.", l)
		ts.snapshots = m.Counter(MetricSnapshots, "Durable tenant snapshots appended to the WAL.", l)
		ts.snapshotBytes = m.Gauge(MetricSnapshotBytes, "Size of the tenant's latest snapshot record.", l)
		ts.applyLatency = m.Histogram(MetricTenantApplyLatency, "Batch apply latency per tenant.", l)
	}
	s.tens[id] = ts
	return ts
}

// shard returns the cached per-shard apply-latency histogram.
func (s *Sink) shard(idx int) *Histogram {
	if s.m == nil {
		return nil
	}
	s.mu.RLock()
	h := s.shards[idx]
	s.mu.RUnlock()
	if h != nil {
		return h
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if h = s.shards[idx]; h != nil {
		return h
	}
	h = s.m.Histogram(MetricShardApplyLatency, "Batch apply latency per shard.", L("shard", strconv.Itoa(idx)))
	s.shards[idx] = h
	return h
}

// TenantRegistered pre-creates all per-tenant series at AddTenant time so
// gauges read 0 (closed breaker, empty queue) before the first batch.
func (s *Sink) TenantRegistered(tenant string) {
	if s == nil {
		return
	}
	s.tenant(tenant)
}

// BatchApplied records one applied batch: latency (tenant and shard
// histograms), throughput counters, and the paper-facing load gauges
// (max load vs the running L* bound, migration hop totals).
func (s *Sink) BatchApplied(tenant string, shard, events int, ns, maxLoad, peakLoad, lstar int64, queue int, migHops, forcedHops int64) {
	if s == nil {
		return
	}
	ts := s.tenant(tenant)
	if s.m != nil {
		ts.events.Add(int64(events))
		ts.batches.Inc()
		ts.applyLatency.Observe(ns)
		s.shard(shard).Observe(ns)
		ts.maxLoad.Set(maxLoad)
		ts.peakLoad.Set(peakLoad)
		ts.lstar.Set(lstar)
		ts.queueDepth.Set(int64(queue))
		ts.migHops.Set(migHops)
		ts.forced2.Set(forcedHops)
	}
	s.fr.Record(EventBatchApply, tenant, "", map[string]int64{
		"events":   int64(events),
		"ns":       ns,
		"max_load": maxLoad,
		"lstar":    lstar,
		"queue":    int64(queue),
	})
}

// QueueDepth tracks the per-tenant admission queue after Submit/ingest.
func (s *Sink) QueueDepth(tenant string, depth int) {
	if s == nil || s.m == nil {
		return
	}
	s.tenant(tenant).queueDepth.Set(int64(depth))
}

// Shed records events refused at admission under OverloadShed.
func (s *Sink) Shed(tenant string, refused, queue int) {
	if s == nil {
		return
	}
	if s.m != nil {
		s.tenant(tenant).shed.Add(int64(refused))
	}
	s.fr.Record(EventShed, tenant, "", map[string]int64{
		"refused": int64(refused),
		"queue":   int64(queue),
	})
}

// Degrade records a degrade-ladder transition (in either direction).
func (s *Sink) Degrade(tenant string, level int, effectiveD int64, lazy bool) {
	if s == nil {
		return
	}
	if s.m != nil {
		ts := s.tenant(tenant)
		ts.degradeLevel.Set(int64(level))
		ts.effectiveD.Set(effectiveD)
	}
	var lz int64
	if lazy {
		lz = 1
	}
	s.fr.Record(EventDegrade, tenant, "", map[string]int64{
		"level":       int64(level),
		"effective_d": effectiveD,
		"lazy":        lz,
	})
}

// BreakerTrip records a tenant poisoning, opens the breaker gauge, and —
// if a poison-dump writer is registered — dumps the flight recorder as
// JSONL so the events leading up to the trip are preserved.
func (s *Sink) BreakerTrip(tenant string, trips int64, cause string) {
	if s == nil {
		return
	}
	if s.m != nil {
		ts := s.tenant(tenant)
		ts.trips.Inc()
		ts.breakerState.Set(1)
	}
	s.fr.Record(EventBreakerTrip, tenant, cause, map[string]int64{"trips": trips})
	s.mu.RLock()
	w := s.dump
	s.mu.RUnlock()
	if w != nil && s.fr != nil {
		_ = s.fr.WriteJSONL(w)
	}
}

// BreakerProbe records a half-open probe attempt.
func (s *Sink) BreakerProbe(tenant string, trips int64) {
	if s == nil {
		return
	}
	if s.m != nil {
		s.tenant(tenant).probes.Inc()
	}
	s.fr.Record(EventBreakerProbe, tenant, "", map[string]int64{"trips": trips})
}

// BreakerHeal records a successful probe: the tenant was rebuilt from the
// journaled safe prefix, dropping `dropped` post-poison events.
func (s *Sink) BreakerHeal(tenant string, dropped int64) {
	if s == nil {
		return
	}
	if s.m != nil {
		ts := s.tenant(tenant)
		ts.heals.Inc()
		ts.breakerState.Set(0)
		ts.dropped.Add(dropped)
	}
	s.fr.Record(EventBreakerHeal, tenant, "", map[string]int64{"dropped": dropped})
}

// ForcedFault records the forced migrations after a PE failure.
func (s *Sink) ForcedFault(tenant string, pe, moved int, hops int64) {
	if s == nil {
		return
	}
	if s.m != nil {
		s.tenant(tenant).forced.Add(int64(moved))
	}
	s.fr.Record(EventForcedFault, tenant, "", map[string]int64{
		"pe":    int64(pe),
		"moved": int64(moved),
		"hops":  hops,
	})
}

// WALOpen pre-creates the WAL families (so fsync series exist even
// before the first sync) and records the open.
func (s *Sink) WALOpen() {
	if s == nil {
		return
	}
	if s.m != nil {
		s.m.Histogram(MetricWALAppendLatency, "WAL record append latency.")
		s.m.Counter(MetricWALAppendBytes, "Bytes appended to the WAL.")
		s.m.Counter(MetricWALAppends, "Records appended to the WAL.")
		s.m.Histogram(MetricWALFsyncLatency, "WAL fsync latency.")
		s.m.Counter(MetricWALFsyncs, "WAL fsync calls.")
		s.m.Counter(MetricWALRotations, "WAL segment rotations.")
		s.m.Counter(MetricWALRepairs, "Torn-tail truncations during WAL open.")
	}
	s.fr.Record(EventWALOpen, "", "", nil)
}

// WALAppend records one appended record.
func (s *Sink) WALAppend(bytes int, ns int64) {
	if s == nil || s.m == nil {
		return
	}
	s.m.Counter(MetricWALAppends, "Records appended to the WAL.").Inc()
	s.m.Counter(MetricWALAppendBytes, "Bytes appended to the WAL.").Add(int64(bytes))
	s.m.Histogram(MetricWALAppendLatency, "WAL record append latency.").Observe(ns)
}

// WALFsync records one fsync.
func (s *Sink) WALFsync(ns int64) {
	if s == nil {
		return
	}
	if s.m != nil {
		s.m.Counter(MetricWALFsyncs, "WAL fsync calls.").Inc()
		s.m.Histogram(MetricWALFsyncLatency, "WAL fsync latency.").Observe(ns)
	}
	s.fr.Record(EventWALFsync, "", "", map[string]int64{"ns": ns})
}

// WALRotate records a segment rotation.
func (s *Sink) WALRotate(seg int64) {
	if s == nil {
		return
	}
	if s.m != nil {
		s.m.Counter(MetricWALRotations, "WAL segment rotations.").Inc()
	}
	s.fr.Record(EventWALRotate, "", "", map[string]int64{"segment": seg})
}

// WALRepair records a torn-tail truncation found while opening the log.
func (s *Sink) WALRepair(truncated int64) {
	if s == nil {
		return
	}
	if s.m != nil {
		s.m.Counter(MetricWALRepairs, "Torn-tail truncations during WAL open.").Inc()
	}
	s.fr.Record(EventWALRepair, "", "", map[string]int64{"truncated_bytes": truncated})
}

// WatchdogTimeout records a replay cell killed by the watchdog.
func (s *Sink) WatchdogTimeout(cell int, timeoutNs int64) {
	if s == nil {
		return
	}
	if s.m != nil {
		s.m.Counter(MetricWatchdogTimeouts, "Replay cells killed by the watchdog.").Inc()
	}
	s.fr.Record(EventWatchdogKill, "", "", map[string]int64{
		"cell":       int64(cell),
		"timeout_ns": timeoutNs,
	})
}

// CellPanic records a panicking replay cell (captured, not propagated).
func (s *Sink) CellPanic(cell int) {
	if s == nil {
		return
	}
	if s.m != nil {
		s.m.Counter(MetricCellPanics, "Panics captured in replay cells.").Inc()
	}
	s.fr.Record(EventCellPanic, "", "", map[string]int64{"cell": int64(cell)})
}

// Snapshot records one durable tenant checkpoint: its size and the WAL
// segment it landed in (the segment that retention must keep).
func (s *Sink) Snapshot(tenant string, bytes int, seg int) {
	if s == nil {
		return
	}
	if s.m != nil {
		ts := s.tenant(tenant)
		ts.snapshots.Inc()
		ts.snapshotBytes.Set(int64(bytes))
	}
	s.fr.Record(EventSnapshot, tenant, "", map[string]int64{
		"bytes":   int64(bytes),
		"segment": int64(seg),
	})
}

// WALTruncate records sealed segments deleted by snapshot retention.
func (s *Sink) WALTruncate(removed int64) {
	if s == nil {
		return
	}
	if s.m != nil {
		s.m.Counter(MetricSnapshotTruncated, "WAL segments deleted by snapshot retention.").Add(removed)
	}
	s.fr.Record(EventWALTruncate, "", "", map[string]int64{"segments": removed})
}

// Recovery records the cost of one Engine.Recover pass: snapshots
// restored, records replayed after them, and records skipped because a
// later snapshot already covered them. Skipped≫replayed is the O(tail)
// recovery working as designed.
func (s *Sink) Recovery(restored, replayed, skipped int64) {
	if s == nil {
		return
	}
	if s.m != nil {
		s.m.Counter(MetricRecoveryRestored, "Tenant snapshots restored during recovery.").Add(restored)
		s.m.Counter(MetricRecoveryReplayed, "Journal records replayed during recovery.").Add(replayed)
		s.m.Counter(MetricRecoverySkipped, "Journal records skipped during recovery (covered by a snapshot).").Add(skipped)
	}
	s.fr.Record(EventRecovery, "", "", map[string]int64{
		"snapshots_restored": restored,
		"records_replayed":   replayed,
		"records_skipped":    skipped,
	})
}

// RebalancePass records one placement rebalance pass: moves planned by
// the balanced placer, moves actually performed, the d·shards budget
// the pass ran under, and invariant violations the post-pass audit
// found (always 0 on a healthy engine).
func (s *Sink) RebalancePass(planned, moved, budget, violations int) {
	if s == nil {
		return
	}
	if s.m != nil {
		s.m.Counter(MetricRebalancePasses, "Placement rebalance passes completed.").Inc()
		s.m.Counter(MetricRebalancePlanned, "Tenant moves planned by the balanced placer.").Add(int64(planned))
		s.m.Counter(MetricRebalanceMoves, "Tenant moves performed by rebalance passes.").Add(int64(moved))
		s.m.Gauge(MetricRebalanceBudget, "Per-pass move budget (d x shards).").Set(int64(budget))
		if violations > 0 {
			s.m.Counter(MetricRebalanceViolations, "Placement invariant violations found by the post-pass audit.").Add(int64(violations))
		}
	}
	s.fr.Record(EventRebalancePass, "", "", map[string]int64{
		"planned":    int64(planned),
		"moved":      int64(moved),
		"budget":     int64(budget),
		"violations": int64(violations),
	})
}

// RebalanceMove records one intra-engine tenant move performed by a
// rebalance pass. The move counter is advanced by RebalancePass (which
// knows the per-pass total); this hook feeds the flight recorder so a
// poison dump shows which tenants moved where, and when.
func (s *Sink) RebalanceMove(tenant string, from, to int) {
	if s == nil {
		return
	}
	s.fr.Record(EventRebalanceMove, tenant, "", map[string]int64{
		"from": int64(from),
		"to":   int64(to),
	})
}

// TenantMoved records an admin MoveTenant: the tenant left this engine
// (direction "out") or was installed from a snapshot (direction "in").
func (s *Sink) TenantMoved(tenant, direction string) {
	if s == nil {
		return
	}
	if s.m != nil {
		s.m.Counter(MetricTenantMoves, "Tenants moved between engines via MoveTenant.").Inc()
	}
	s.fr.Record(EventTenantMoved, tenant, direction, nil)
}
