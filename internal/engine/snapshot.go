// Tenant snapshotting, journal compaction, and O(tail) recovery.
//
// A snapshot (wal.TypeSnapshot) is one self-contained checkpoint of a
// tenant: its rebuild spec, its engine ledger, its queued events, the
// allocator's core.Checkpointable bytes, and — under Config.Audit — the
// invariant checker's own ledger. Self-containment is the point: a
// restored tenant needs nothing from the journal before the snapshot
// record. A journaled tenant's registration is its genesis snapshot, so
// every journaled tenant has one from birth, and there is one way to
// rebuild a tenant: restore its latest snapshot, replay the tail.
//
// A tenant becomes an envelope one way, snapshotOf, and an envelope
// becomes a tenant one way, thaw: recovery's restores, MoveTenant's
// arrival and breaker heals all go through it, and it refuses a queue
// longer than the receiving engine's MaxQueue.
//
//   - Compaction: the engine tracks, per tenant, the segment holding its
//     latest snapshot (its watermark). Once every tenant's latest
//     snapshot lives in segment ≥ s, segments before s contain only
//     history the snapshots already summarize and are deleted
//     (wal.Log.TruncateBefore). A tenant whose latest snapshot is its
//     genesis snapshot pins the log from its registration on.
//
//   - O(tail) recovery: Recover scans the log once to find each tenant's
//     last snapshot (pass 1), then replays (pass 2) skipping every record
//     older than it; the tenant is restored from the snapshot and only
//     the post-snapshot tail is re-applied. RecoveryStats counts the
//     skipped/replayed split so tests can assert the O(tail) claim.
//
// The circuit breaker's half-open probe and recovery's TypeRebuild redo
// are one routine, rebuildFromSnapshot: restore the latest (necessarily
// pre-poison — snapshots are only taken at healthy moments) snapshot and
// replay the tail up to the safe prefix, reading the journal from the
// tenant's own watermark segment on. A successful probe appends a
// "healing" snapshot right after its TypeRebuild record, so a later
// recovery or probe starts from the healed state.
//
// MoveTenant rounds the feature out: a snapshot is, operationally, a
// tenant in a box, so rebalancing a tenant onto another engine is
// snapshotOf → thaw → register at the destination, then a TypeRemove
// journaled at the source. The envelope crosses as a struct; only the
// journals marshal it (appendSnapshot).
package engine

import (
	"encoding/json"
	"fmt"
	"sync"

	"partalloc/internal/core"
	"partalloc/internal/sim"
	"partalloc/internal/task"
	"partalloc/internal/wal"
)

// tenantSnapshot is the JSON envelope inside a wal.TypeSnapshot record.
// It carries everything Recover needs to rebuild the tenant without
// reading any earlier record: the spec re-creates allocator/faults/host,
// Alloc restores the allocator's exact state, Checker the audit ledger,
// Queue the pending events, and the scalar fields the engine ledger.
// Wall-clock-derived state (ApplyNs, BatchNs, the Degrade ladder) is
// deliberately absent — CanonicalStats clears it, and the breaker's
// rebuild precedent restarts the ladder too.
type tenantSnapshot struct {
	Spec          TenantSpec
	Events        int64
	Batches       int64
	ActiveSize    int64
	MaxActiveSize int64
	PeakLoad      int
	FaultPos      int
	FaultHit      int
	MigHops       int64 `json:",omitempty"`
	ForcedHops    int64 `json:",omitempty"`
	Shed          int64 `json:",omitempty"`
	Dropped       int64 `json:",omitempty"`
	Trips         int   `json:",omitempty"`
	// Shard is the tenant's shard route when the snapshot was taken.
	// Always written (no omitempty — shard 0 is a real route): once
	// compaction deletes the TypeMove records a snapshot supersedes, the
	// envelope is the only surviving carrier of the tenant's route.
	Shard   int
	Queue   []byte // wal.AppendEvents encoding; never empty (count prefix)
	Alloc   []byte // core.Checkpointable bytes
	Checker []byte `json:",omitempty"` // invariant.Checker ledger, Audit only
}

// RecoveryStats reports how Recover reconstructed the engine: how many
// journal records it scanned, how many it skipped because a later
// snapshot already covered them, how many it re-applied, and how many
// snapshots it restored — one per recovered tenant, its genesis snapshot
// when it never took another. RecordsSkipped + RecordsReplayed ≤
// RecordsScanned (restored snapshot records are counted in
// SnapshotsRestored, not RecordsReplayed).
type RecoveryStats struct {
	RecordsScanned    int64
	RecordsSkipped    int64
	RecordsReplayed   int64
	SnapshotsRestored int64
	// MovesReplayed counts TypeMove records re-applied: each one rewrote
	// the recovered routing table (and re-homed the tenant) exactly as
	// the live engine's rebalance did.
	MovesReplayed int64
}

// RecoveryStats returns the ledger of the Recover call that built this
// engine; all-zero for an engine built with New.
func (e *Engine) RecoveryStats() RecoveryStats { return e.recStats }

// snapshotOf captures t's full state as a snapshot envelope. Callers
// hold t.mu, or own t before it is registered, so the allocator and
// ledger are frozen.
func snapshotOf(t *tenant) (*tenantSnapshot, error) {
	if !t.hasSpec {
		return nil, fmt.Errorf("engine: snapshot %q: tenant has no rebuild recipe", t.id)
	}
	ck, ok := t.alloc.(core.Checkpointable)
	if !ok {
		return nil, fmt.Errorf("engine: snapshot %q: allocator %s is not checkpointable", t.id, t.alloc.Name())
	}
	return &tenantSnapshot{
		Spec:          t.spec,
		Events:        t.events,
		Batches:       t.batches,
		ActiveSize:    t.step.ActiveSize,
		MaxActiveSize: t.step.MaxActiveSize,
		PeakLoad:      t.step.PeakLoad,
		FaultPos:      t.faultPos,
		FaultHit:      t.step.FaultEvents,
		MigHops:       t.step.MigHops,
		ForcedHops:    t.step.ForcedHops,
		Shed:          t.shed,
		Dropped:       t.dropped,
		Trips:         t.trips,
		Shard:         t.shardIdx,
		Queue:         wal.AppendEvents(nil, t.queue),
		Alloc:         ck.Snapshot(),
		Checker:       t.step.Checker().Checkpoint(),
	}, nil
}

// thaw turns a snapshot envelope into a tenant, the one way a snapshot
// becomes one: recovery's restores (restoreSnapshot), MoveTenant's
// arrival and breaker heals (rebuildFromSnapshot). It builds a fresh
// allocator from the spec with Config.Rebuild, restores the allocator's
// state, the checker ledger when auditing, the queue and the engine
// ledger. The envelope's Shard is the caller's to interpret, and the
// caller sets the tenant's stripe. A queue longer than MaxQueue is
// refused: ingest relies on the bound, so a tenant moved, or a journal
// recovered, into an engine with a smaller bound would otherwise crash
// the tenant's next Submit.
func (e *Engine) thaw(env *tenantSnapshot) (*tenant, error) {
	id := env.Spec.ID
	a, faults, host, err := e.cfg.Rebuild(env.Spec)
	if err != nil {
		return nil, fmt.Errorf("engine: restore %q: %w", id, err)
	}
	t, err := e.buildTenant(env.Spec, true, a, faults, host)
	if err != nil {
		return nil, err
	}
	ck, ok := a.(core.Checkpointable)
	if !ok {
		return nil, fmt.Errorf("engine: restore %q: allocator %s is not checkpointable", id, a.Name())
	}
	if err := ck.Restore(env.Alloc); err != nil {
		return nil, fmt.Errorf("engine: restore %q: allocator: %w", id, err)
	}
	if check := t.step.Checker(); check != nil {
		if len(env.Checker) == 0 {
			return nil, fmt.Errorf("engine: restore %q: snapshot has no audit ledger but Config.Audit is on", id)
		}
		if err := check.RestoreCheckpoint(env.Checker); err != nil {
			return nil, fmt.Errorf("engine: restore %q: %w", id, err)
		}
	}
	queue, err := wal.DecodeEvents(env.Queue)
	if err != nil {
		return nil, fmt.Errorf("engine: restore %q: queue: %w", id, err)
	}
	if e.cfg.MaxQueue > 0 && len(queue) > e.cfg.MaxQueue {
		return nil, fmt.Errorf("engine: restore %q: snapshot queues %d events, above MaxQueue %d", id, len(queue), e.cfg.MaxQueue)
	}
	if len(queue) > 0 {
		t.queue = queue
	}
	if env.Events < 0 || env.Batches < 0 || env.FaultPos < 0 || env.FaultPos > len(t.faults) {
		return nil, fmt.Errorf("engine: restore %q: inconsistent snapshot ledger", id)
	}
	t.events = env.Events
	t.meter.publish(t.events)
	t.batches = env.Batches
	t.step.Ledger = sim.Ledger{
		ActiveSize:    env.ActiveSize,
		MaxActiveSize: env.MaxActiveSize,
		PeakLoad:      env.PeakLoad,
		FaultEvents:   env.FaultHit,
		MigHops:       env.MigHops,
		ForcedHops:    env.ForcedHops,
	}
	t.faultPos = env.FaultPos
	t.shed = env.Shed
	t.dropped = env.Dropped
	t.trips = env.Trips
	t.lastSnapBatch = env.Batches
	return t, nil
}

// maybeSnapshot checkpoints t when the Config.SnapshotEvery cadence is
// due. Called on the live ingestion paths (Submit and Flush) after
// a successful apply, under the tenant's lock; never during recovery or a
// breaker rebuild, whose replays go through other entry points (a probe
// appends its own healing snapshot).
func (e *Engine) maybeSnapshot(t *tenant) error {
	k := int64(e.cfg.SnapshotEvery)
	if k <= 0 || e.cfg.Journal == nil || !t.hasSpec || t.err != nil {
		return nil
	}
	if t.batches-t.lastSnapBatch < k {
		return nil
	}
	return e.snapshotTenant(t)
}

// snapshotTenant appends a snapshot record for t unconditionally (a
// cadence or healing snapshot) and runs the compaction rule. Callers
// hold t.mu.
func (e *Engine) snapshotTenant(t *tenant) error {
	env, err := snapshotOf(t)
	if err != nil {
		return err
	}
	if err := e.appendSnapshot(env); err != nil {
		return err
	}
	t.lastSnapBatch = t.batches
	return e.compact()
}

// appendSnapshot journals env as its tenant's TypeSnapshot record and
// advances the tenant's compaction watermark to the segment the record
// landed in. Every snapshot goes through here: genesis and arrival by
// MoveTenant (register), cadence and healing (snapshotTenant). Seg is
// read and the watermark set under the append's jmu hold: a rotation
// from another tenant could misattribute the segment otherwise, and a
// truncation that computed its bound before this append cannot pass a
// segment this append wrote. Only a tenant itself moves its watermark:
// callers hold its lock, or rebalMu while it is not yet registered
// (register).
func (e *Engine) appendSnapshot(env *tenantSnapshot) error {
	id := env.Spec.ID
	data, err := json.Marshal(env)
	if err != nil {
		return fmt.Errorf("engine: snapshot %q: %w", id, err)
	}
	e.jmu.Lock()
	//lint:ignore lockorder jmu serializes all journal writes (see journalAppend), and the watermark must move under the same hold as the append
	err = e.cfg.Journal.Append(wal.Record{Type: wal.TypeSnapshot, Tenant: id, Data: data})
	seg := e.cfg.Journal.Seg()
	if err == nil {
		e.snapSeg[id] = seg
	}
	e.jmu.Unlock()
	if err != nil {
		return fmt.Errorf("engine: snapshot %q: %w", id, err)
	}
	e.cfg.Sink.Snapshot(id, len(data), seg)
	return nil
}

// compact applies the retention rule: delete every segment older than
// all tenants' latest snapshots. The bound and the truncation share one
// jmu hold, so no watermark can move in between.
func (e *Engine) compact() error {
	e.jmu.Lock()
	defer e.jmu.Unlock()
	min := 0
	for _, seg := range e.snapSeg {
		if min == 0 || seg < min {
			min = seg
		}
	}
	if min <= 1 {
		return nil // nothing older than the first segment
	}
	//lint:ignore lockorder jmu serializes every journal mutation; truncation races with rotation otherwise
	if err := e.cfg.Journal.TruncateBefore(min); err != nil {
		return fmt.Errorf("engine: compact: %w", err)
	}
	return nil
}

// readTail reads id's journal from its watermark segment on: the latest
// snapshot record, decoded, and the tenant's valid event stream after it
// — the snapshot's queued events, then every later Submit record's
// events, with TypeRebuild records applied as truncations (their keep
// counts index the whole stream, so they translate by env.Events).
// Records at or after stop are not read. Position p of the tail is
// stream event env.Events+p.
//
// Reading while other tenants append and compact is safe. Compaction
// never deletes a segment at or after any tenant's watermark, and only
// the tenant moves its own watermark, under its lock, which the caller
// holds; that lock also freezes the tenant's records. A concurrent append can at
// most leave a torn frame at the end of the last segment, which the scan
// tolerates.
func (e *Engine) readTail(id string, stop wal.Pos) (*tenantSnapshot, []task.Event, error) {
	e.jmu.Lock()
	from := e.snapSeg[id]
	e.jmu.Unlock()
	var env *tenantSnapshot
	var tail []task.Event
	err := wal.ReplayFrom(e.cfg.Journal.Dir(), from, func(pos wal.Pos, rec wal.Record) error {
		if !pos.Before(stop) {
			return wal.ErrStop
		}
		if rec.Tenant != id {
			return nil
		}
		var evs []task.Event
		var err error
		switch {
		case rec.Type == wal.TypeSnapshot:
			env = new(tenantSnapshot)
			if err = json.Unmarshal(rec.Data, env); err == nil {
				tail, err = wal.DecodeEvents(env.Queue)
			}
		case env == nil:
			// History the latest snapshot already summarizes.
		case rec.Type == wal.TypeSubmit:
			evs, err = wal.DecodeEvents(rec.Data)
		case rec.Type == wal.TypeRebuild:
			var keep int64
			if keep, _, err = wal.DecodeRebuild(rec.Data); err == nil {
				rel := keep - env.Events
				if rel < 0 || rel > int64(len(tail)) {
					return fmt.Errorf("engine: journal record %s: rebuild keeps %d events but snapshot covers %d+%d",
						pos, keep, env.Events, len(tail))
				}
				tail = tail[:rel]
			}
		}
		if err != nil {
			return fmt.Errorf("engine: journal record %s: %w", pos, err)
		}
		tail = append(tail, evs...)
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	if env == nil {
		return nil, nil, fmt.Errorf("engine: tenant %q: no snapshot in the journal from segment %d on", id, from)
	}
	return env, tail, nil
}

// replayChunks applies evs through t in BatchSize chunks, so the live
// probe and recovery's redo of it — both rebuildFromSnapshot — produce
// the same batch ledger.
func (e *Engine) replayChunks(t *tenant, evs []task.Event) error {
	for off := 0; off < len(evs); off += e.cfg.BatchSize {
		if err := e.apply(t, evs[off:min(off+e.cfg.BatchSize, len(evs))], len(t.queue)); err != nil {
			return err
		}
	}
	return nil
}

// rebuildFromSnapshot is the one tenant rebuild, run by the breaker's
// half-open probe and by recovery's redo of its TypeRebuild record:
// restore t's latest snapshot, replay the journaled tail up to keep
// events in replayChunks chunks, and carry over what the envelope does
// not hold for a rebuild — shed events, dropped events plus the suffix
// past keep, the trip count and the breaker deadline. Only the state
// is replaced: the lock, the stripe, the scratch and the load meter stay
// the tenant's (env.Shard is stale if a pass moved the tenant after
// that snapshot, and the replay restores t.events, so a fresh meter would
// count the tenant's whole history as the next pass's window). The
// meter stays poisoned until the replay succeeds, and its published
// count does not drop to the snapshot's while the replay climbs back.
// stop bounds the tail read. commit gets the drop count once the
// replacement is built and before t changes: the probe journals its
// TypeRebuild there, recovery checks the journaled count. A failure up
// to and including commit leaves t as it was and re-opens the breaker;
// a failing replay poisons t again. Callers hold t.mu.
func (e *Engine) rebuildFromSnapshot(t *tenant, keep int64, stop wal.Pos, commit func(drop int64) error) (int64, error) {
	fail := func(err error) (int64, error) {
		e.rearm(t)
		return 0, err
	}
	env, tail, err := e.readTail(t.id, stop)
	if err != nil {
		return fail(err)
	}
	need := keep - env.Events
	if need < 0 || need > int64(len(tail)) {
		return fail(fmt.Errorf("engine: rebuild %q: keeping %d events against snapshot %d + %d tail events",
			t.id, keep, env.Events, len(tail)))
	}
	drop := int64(len(tail)) - need
	nt, err := e.thaw(env)
	if err != nil {
		return fail(err)
	}
	if err := commit(drop); err != nil {
		return fail(err)
	}
	// The snapshot's queued events are tail[0:...]; applying them from the
	// tail AND leaving them queued would double them.
	nt.queue = nil
	nt.shed = t.shed
	nt.dropped = t.dropped + drop
	nt.trips = t.trips
	nt.deadline = t.deadline
	// The copy keeps nt's step, and with it the allocator's migration
	// observer, which holds the step rather than the tenant. The stripe's
	// ledgers trade the old state's share for the new one's.
	sh := e.shardAt(t.shardIdx)
	sh.credit(t, -1)
	t.tenantState = nt.tenantState
	sh.credit(t, 1)
	if err := e.replayChunks(t, tail[:need]); err != nil {
		return drop, err
	}
	t.meter.poisoned.Store(false)
	return drop, nil
}

// restoreSnapshot registers a tenant from its reset-point snapshot during
// recovery — the latest one, or its genesis snapshot when it never took
// another. Every earlier record of the tenant was skipped, so the
// envelope is the registration, and pass one restores each tenant once.
// The tenant's compaction watermark starts at the snapshot's segment, as
// on the live engine.
func (e *Engine) restoreSnapshot(pos wal.Pos, rec wal.Record) error {
	var env tenantSnapshot
	if err := json.Unmarshal(rec.Data, &env); err != nil {
		return fmt.Errorf("engine: recover record %s: snapshot: %w", pos, err)
	}
	if env.Spec.ID != rec.Tenant {
		return fmt.Errorf("engine: recover record %s: snapshot spec ID %q does not match tenant %q", pos, env.Spec.ID, rec.Tenant)
	}
	t, err := e.thaw(&env)
	if err != nil {
		return fmt.Errorf("engine: recover record %s: %w", pos, err)
	}
	// The envelope carries the tenant's route: compaction may have
	// deleted the TypeMove records that produced it. Out-of-range routes
	// (a journal recovered into a smaller engine) fall back to the hash
	// default.
	t.shardIdx = env.Shard
	if t.shardIdx < 0 || t.shardIdx >= len(e.shards) {
		t.shardIdx = hashShard(rec.Tenant, len(e.shards))
	}
	e.jmu.Lock()
	e.snapSeg[t.id] = pos.Seg
	e.jmu.Unlock()
	// The snapshot is already in the journal.
	e.admit(t)
	return nil
}

// moveMu serializes MoveTenant calls process-wide. A move holds locks
// on two engines at once (the source's rebalMu and tenant while the
// destination registers the arrival under its rebalMu); serializing
// moves is what keeps two concurrent opposite-direction moves from
// deadlocking on each other's locks.
var moveMu sync.Mutex

// MoveTenant extracts tenant id from e and registers it in dst — a
// rebalance with no event replay: the tenant travels as one snapshot
// envelope, which dst thaws and seats by its own placement policy.
// The destination journals the arrival's snapshot (when it has a
// journal), then the source journals a TypeRemove and forgets the
// tenant, so each engine's log recovers its own post-move view. The
// tenant must be healthy, have a rebuild recipe, and dst must have
// Config.Rebuild. A tenant dst cannot thaw (its queue is longer than
// dst's MaxQueue, or dst audits and the envelope has no audit ledger)
// or already holds is refused, and stays on the source.
//
// The two journals cannot be updated atomically: a crash after the
// destination's append but before the source's leaves the tenant on
// both engines after recovery (at-least-once, never lost). The same
// window is reported as an error when the source append fails.
func (e *Engine) MoveTenant(id string, dst *Engine) error {
	if dst == nil {
		return fmt.Errorf("engine: MoveTenant(%q): nil destination", id)
	}
	if dst == e {
		return fmt.Errorf("engine: MoveTenant(%q): destination is the source engine", id)
	}
	if dst.cfg.Rebuild == nil {
		return fmt.Errorf("engine: MoveTenant(%q): destination has no Config.Rebuild", id)
	}
	moveMu.Lock()
	defer moveMu.Unlock()
	// The removal writes the source's registry, which needs rebalMu;
	// holding it from here also keeps the source's own passes from moving
	// the tenant while it travels.
	e.rebalMu.Lock()
	defer e.rebalMu.Unlock()
	t := e.lockTenant(id)
	if t == nil {
		return fmt.Errorf("%w: %q", ErrUnknownTenant, id)
	}
	defer t.mu.Unlock()
	if t.err != nil {
		return fmt.Errorf("engine: MoveTenant(%q): %w: move healthy tenants only: %w", id, ErrTenantPoisoned, t.err)
	}
	env, err := snapshotOf(t)
	if err != nil {
		return err
	}
	nt, err := dst.thaw(env)
	if err != nil {
		return fmt.Errorf("engine: MoveTenant(%q): %w", id, err)
	}
	//lint:ignore lockorder the move is a two-journal transaction: the destination's registration and the source's removal must happen with the tenant frozen under its lock, and moveMu serializes moves so the cross-engine lock pair cannot deadlock
	if err := dst.register(nt); err != nil {
		return fmt.Errorf("engine: MoveTenant(%q): %w", id, err)
	}
	dst.cfg.Sink.TenantMoved(id, "in")
	if e.cfg.Journal != nil {
		//lint:ignore lockorder append-before-apply: the removal record must land before the tenant disappears from this engine (see Submit)
		if err := e.journalAppend(wal.Record{Type: wal.TypeRemove, Tenant: id}); err != nil {
			return fmt.Errorf("engine: MoveTenant(%q): installed at destination but source removal failed (tenant now on both): %w", id, err)
		}
	}
	e.evict(t)
	e.cfg.Sink.TenantMoved(id, "out")
	return nil
}
