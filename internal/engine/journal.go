// Write-ahead journaling and crash recovery. The journal mirrors
// ingestion *calls*, not abstract event streams: a tenant's registration
// is its genesis TypeSnapshot (snapshot.go), a TypeSubmit record is one
// accepted Submit, a TypeFlush is a flush of a non-empty queue, and a
// TypeRebuild is a circuit-breaker rebuild. Replay is made of Flush and
// Submit calls, so it writes those records and no type of its own.
// Replaying the records after each tenant's latest snapshot therefore
// reproduces the engine's queue and batch structure exactly — Recover
// yields the same Events/Queued/Batches/PeakLoad ledger an uninterrupted
// run has, not merely the same final placements.
//
// Every record is appended before the state change it describes
// (append-before-apply), so the journal can only ever be ahead of the
// in-memory state, never behind; a record whose apply was cut short by
// the crash is simply re-applied.
package engine

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"

	"partalloc/internal/errs"
	"partalloc/internal/task"
	"partalloc/internal/wal"
)

// TenantSpec is a tenant's serializable rebuild recipe: everything
// Config.Rebuild needs to reconstruct the allocator, fault schedule, and
// topology host from scratch. The engine treats all fields except ID as
// opaque; the partalloc facade fills them from the same options it
// builds the live allocator with.
type TenantSpec struct {
	// ID is the tenant ID.
	ID string
	// Algorithm names the algorithm in whatever vocabulary Config.Rebuild
	// understands; the partalloc facade writes paper names
	// (partalloc.Algorithm.String).
	Algorithm string `json:",omitempty"`
	// N is the machine size in PEs.
	N int `json:",omitempty"`
	// D is the reallocation parameter; DSet distinguishes an explicit 0.
	D    int  `json:",omitempty"`
	DSet bool `json:",omitempty"`
	// Order is the reallocation order ("", "decreasing", "arrival").
	Order string `json:",omitempty"`
	// Seed is the A_Rand seed; SeedSet distinguishes an explicit 0.
	Seed    int64 `json:",omitempty"`
	SeedSet bool  `json:",omitempty"`
	// Topology names the physical network ("" = plain tree machine).
	Topology string `json:",omitempty"`
	// Faults is the fault schedule in internal/fault text format.
	Faults string `json:",omitempty"`
}

// journalAppend serializes appends across tenants. The wal.Log is not
// concurrency-safe, and interleaved partial frames would corrupt the
// log for every tenant at once.
func (e *Engine) journalAppend(rec wal.Record) error {
	e.jmu.Lock()
	defer e.jmu.Unlock()
	//lint:ignore lockorder jmu exists precisely to serialize this write: wal.Log is single-writer, and an interleaved frame would corrupt the log for every tenant
	if err := e.cfg.Journal.Append(rec); err != nil {
		return fmt.Errorf("engine: journal: %w", err)
	}
	return nil
}

// journalSubmit journals one accepted Submit. It encodes the record, as
// every journal helper with a payload does, into the scratch buffer of
// the tenant whose lock the caller holds (tenant.enc), so a warm
// journaled call allocates nothing.
func (e *Engine) journalSubmit(t *tenant, evs []task.Event) error {
	if e.cfg.Journal == nil || len(evs) == 0 {
		return nil
	}
	t.enc = wal.AppendEvents(t.enc[:0], evs)
	return e.journalAppend(wal.Record{Type: wal.TypeSubmit, Tenant: t.id, Data: t.enc})
}

func (e *Engine) journalFlush(t *tenant) error {
	if e.cfg.Journal == nil {
		return nil
	}
	return e.journalAppend(wal.Record{Type: wal.TypeFlush, Tenant: t.id})
}

// journalEnd is the tail-read bound of a live probe: read to the end.
var journalEnd = wal.Pos{Seg: math.MaxInt}

// probe is the circuit breaker's half-open transition: rebuild the
// poisoned tenant from its latest snapshot and the journaled tail up to
// t.events — the events that applied successfully — dropping the
// poisonous suffix (rebuildFromSnapshot). The TypeRebuild record commits
// the rebuild before the tenant changes, and a healing snapshot of the
// rebuilt state follows it, so recovery and the next probe both start
// from the healed tenant. On success the tenant is healthy again
// (t.err == nil); on failure the breaker re-opens with a doubled
// backoff. Callers hold t.mu.
func (e *Engine) probe(t *tenant) error {
	keep := t.events
	drop, err := e.rebuildFromSnapshot(t, keep, journalEnd, func(drop int64) error {
		t.enc = wal.AppendRebuild(t.enc[:0], keep, drop)
		return e.journalAppend(wal.Record{Type: wal.TypeRebuild, Tenant: t.id, Data: t.enc})
	})
	if err != nil {
		return err
	}
	if err := e.snapshotTenant(t); err != nil {
		return err
	}
	e.cfg.Sink.BreakerHeal(t.id, drop)
	return nil
}

// rearm re-opens the breaker after a failed probe: the trip count rises,
// doubling the next backoff.
func (e *Engine) rearm(t *tenant) {
	t.trips++
	t.deadline = e.now() + e.backoff(t)
}

// Recover reconstructs an engine from the journal in dir: the log is
// opened (repairing any torn tail), then every record is re-applied in
// order through the same code paths live ingestion uses. cfg.Rebuild is
// required; cfg.Journal is replaced by the reopened log, so the
// recovered engine keeps journaling where the crashed one stopped.
//
// Recovery is O(tail): a first pass finds each tenant's last snapshot —
// its genesis snapshot at least, later ones with Config.SnapshotEvery or
// after a breaker heal on the crashed engine — and the second pass skips
// every record older than it, restores the snapshot, and replays only
// what follows. RecoveryStats reports the split. Recovery never writes
// to the journal while it reads it.
//
// Recovery is deterministic for everything the ingestion history
// determines: TenantStats of a recovered engine match an uninterrupted
// run byte-for-byte under CanonicalStats. (Under the Degrade policy the
// knob itself is driven by wall-clock latency, so placements may differ
// across runs — that is true of two uninterrupted runs too.)
func Recover(cfg Config, dir string, wopt wal.Options) (*Engine, error) {
	if cfg.Rebuild == nil {
		return nil, errors.New("engine: Recover requires Config.Rebuild")
	}
	log, err := wal.Open(dir, wopt)
	if err != nil {
		return nil, err
	}
	cfg.Journal = log
	e := New(cfg)
	e.resetPos = make(map[string]wal.Pos)
	// Pass 1: find each tenant's reset point — its last snapshot (restore
	// from there) or removal (forget everything before).
	if err := wal.ReplayFrom(dir, 0, func(pos wal.Pos, rec wal.Record) error {
		e.recStats.RecordsScanned++
		if rec.Type == wal.TypeSnapshot || rec.Type == wal.TypeRemove {
			e.resetPos[rec.Tenant] = pos
		}
		return nil
	}); err != nil {
		log.Close()
		return nil, err
	}
	if err := wal.ReplayFrom(dir, 0, e.dispatch); err != nil {
		log.Close()
		return nil, err
	}
	e.resetPos = nil
	cfg.Sink.Recovery(e.recStats.SnapshotsRestored, e.recStats.RecordsReplayed, e.recStats.RecordsSkipped)
	return e, nil
}

// dispatch re-applies one journal record during Recover. A tenant's
// records up to its reset point are skipped — its last snapshot already
// summarizes them, or its removal forgot them — and the snapshot itself
// is restored, so no TypeSnapshot or TypeRemove record reaches the
// replay switch.
func (e *Engine) dispatch(pos wal.Pos, rec wal.Record) error {
	if reset, ok := e.resetPos[rec.Tenant]; ok && !reset.Before(pos) {
		if pos == reset && rec.Type == wal.TypeSnapshot {
			e.recStats.SnapshotsRestored++
			return e.restoreSnapshot(pos, rec)
		}
		e.recStats.RecordsSkipped++
		return nil
	}
	e.recStats.RecordsReplayed++
	switch rec.Type {
	case wal.TypeSubmit:
		evs, err := wal.DecodeEvents(rec.Data)
		if err != nil {
			return fmt.Errorf("engine: recover record %s: %w", pos, err)
		}
		return e.redo(rec.Tenant, pos, func(t *tenant) error { return e.ingest(t, evs) })
	case wal.TypeFlush:
		return e.redo(rec.Tenant, pos, func(t *tenant) error { return e.flushTenant(t) })
	case wal.TypeRebuild:
		keep, drop, err := wal.DecodeRebuild(rec.Data)
		if err != nil {
			return fmt.Errorf("engine: recover record %s: %w", pos, err)
		}
		return e.redoRebuild(rec.Tenant, pos, keep, drop)
	case wal.TypeMove:
		_, to, err := wal.DecodeMove(rec.Data)
		if err != nil {
			return fmt.Errorf("engine: recover record %s: %w", pos, err)
		}
		if err := e.redoMove(rec.Tenant, pos, to); err != nil {
			return err
		}
		e.recStats.MovesReplayed++
		return nil
	default:
		return fmt.Errorf("engine: recover record %s: unknown record type %d", pos, rec.Type)
	}
}

// redo runs fn against the named tenant, swallowing poisoning errors: a
// record whose application poisons the tenant is the journal faithfully
// reproducing the original failure — the tenant ends up poisoned exactly
// as the crashed engine had it — not a recovery failure. No breaker
// probing happens here; rebuilds exist in the journal as records of
// their own.
func (e *Engine) redo(id string, pos wal.Pos, fn func(*tenant) error) error {
	t := e.lockTenant(id)
	if t == nil {
		return fmt.Errorf("engine: recover record %s: %w: %q", pos, ErrUnknownTenant, id)
	}
	defer t.mu.Unlock()
	if t.err != nil {
		// The live engine never journals for a poisoned tenant, so a
		// record here means journal and state diverged.
		return fmt.Errorf("engine: recover record %s: tenant %q is poisoned but has later records", pos, id)
	}
	if err := fn(t); err != nil {
		if errors.Is(err, errs.ErrTenantPoisoned) {
			return nil
		}
		return err
	}
	return nil
}

// redoRebuild re-applies a journaled circuit-breaker rebuild. The
// record lies after the tenant's restored snapshot — pass one made the
// latest snapshot the reset point — so the probe's healing snapshot
// never reached the journal, typically because the crash came between
// the two. The rebuild is re-derived exactly as the probe derived it,
// from the same snapshot plus the tail up to this record, and the
// journaled drop count must agree.
func (e *Engine) redoRebuild(id string, pos wal.Pos, keep, drop int64) error {
	t := e.lockTenant(id)
	if t == nil {
		return fmt.Errorf("engine: recover record %s: %w: %q", pos, ErrUnknownTenant, id)
	}
	defer t.mu.Unlock()
	_, err := e.rebuildFromSnapshot(t, keep, pos, func(got int64) error {
		if got != drop {
			return fmt.Errorf("engine: recover record %s: rebuild drops %d events, the journal says %d", pos, got, drop)
		}
		return nil
	})
	if err != nil && !errors.Is(err, errs.ErrTenantPoisoned) {
		return err
	}
	return nil
}

// CanonicalStats renders st as deterministic JSON for byte-for-byte
// comparison across runs: wall-clock-derived fields are cleared —
// ApplyNs and BatchNs (latency samples), the Degrade controller's
// outputs (EffectiveD, DegradeLevel, Degrades), which those latencies
// drive, and BreakerTrips (a failed half-open probe re-trips the
// breaker without leaving a journal record, so the count depends on
// probe timing). Everything else is a pure function of the ingestion
// history, so an uninterrupted run and a crash-recovered one must
// agree exactly.
func CanonicalStats(st TenantStats) []byte {
	st.ApplyNs = 0
	st.BatchNs = nil
	st.EffectiveD = 0
	st.DegradeLevel = 0
	st.Degrades = nil
	st.BreakerTrips = 0
	b, err := json.Marshal(st)
	if err != nil {
		// TenantStats holds only marshalable fields; this cannot fail.
		panic(fmt.Errorf("engine: canonical stats: %w", err))
	}
	return b
}
