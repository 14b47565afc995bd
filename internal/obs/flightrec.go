package obs

import (
	"encoding/json"
	"io"
	"sync"
	"time"
)

// An Event is one structured flight-recorder entry. Attrs carries the
// numeric payload; encoding/json marshals map keys sorted, so a dumped
// event is byte-deterministic for a given state.
type Event struct {
	Seq    uint64           `json:"seq"`
	TimeNs int64            `json:"t_ns"`
	Kind   string           `json:"kind"`
	Tenant string           `json:"tenant,omitempty"`
	Attrs  map[string]int64 `json:"attrs,omitempty"`
	Cause  string           `json:"cause,omitempty"`
}

// Event kinds recorded by the engine's Sink. Kept as constants so the
// flight-recorder schema in docs/OBSERVABILITY.md has a single source.
const (
	EventBatchApply   = "batch-apply"
	EventShed         = "shed"
	EventDegrade      = "degrade"
	EventBreakerTrip  = "breaker-trip"
	EventBreakerProbe = "breaker-probe"
	EventBreakerHeal  = "breaker-heal"
	EventForcedFault  = "forced-fault"
	EventWALOpen      = "wal-open"
	EventWALFsync     = "wal-fsync"
	EventWALRotate    = "wal-rotate"
	EventWALRepair    = "wal-repair"
	EventWatchdogKill = "watchdog-kill"
	EventCellPanic    = "cell-panic"
	EventSnapshot     = "snapshot"
	EventWALTruncate  = "wal-truncate"
	EventRecovery     = "recovery"
	EventTenantMoved  = "tenant-moved"
	// EventRebalanceMove is one intra-engine tenant move performed by a
	// placement rebalance pass; attrs carry the from/to shard indexes.
	EventRebalanceMove = "rebalance-move"
	// EventRebalancePass summarizes one rebalance pass: moves planned,
	// moves performed, the d·shards budget, and audit violations.
	EventRebalancePass = "rebalance-pass"
)

// A FlightRecorder is a fixed-size ring buffer of Events. Writers pay one
// mutex acquisition and one slot copy; once the ring wraps, the oldest
// entry is overwritten. It is safe for concurrent use.
//
// Do not construct FlightRecorder directly; use NewFlightRecorder
// (enforced outside the engine/facade by the obsbless lint).
type FlightRecorder struct {
	mu    sync.Mutex
	buf   []Event
	next  uint64 // sequence of the next event; also total recorded
	clock func() int64
}

// NewFlightRecorder returns a recorder holding the last n events. n < 1
// is clamped to 1 (the facade validates user input before it gets here).
func NewFlightRecorder(n int) *FlightRecorder {
	if n < 1 {
		n = 1
	}
	return &FlightRecorder{
		buf:   make([]Event, n),
		clock: func() int64 { return time.Now().UnixNano() },
	}
}

// setClock replaces the timestamp source; test hook only.
func (f *FlightRecorder) setClock(clock func() int64) {
	f.mu.Lock()
	f.clock = clock
	f.mu.Unlock()
}

// Record appends one event, stamping Seq and TimeNs. The caller must not
// retain or mutate attrs after the call.
func (f *FlightRecorder) Record(kind, tenant, cause string, attrs map[string]int64) {
	if f == nil {
		return
	}
	f.mu.Lock()
	f.buf[f.next%uint64(len(f.buf))] = Event{
		Seq:    f.next,
		TimeNs: f.clock(),
		Kind:   kind,
		Tenant: tenant,
		Attrs:  attrs,
		Cause:  cause,
	}
	f.next++
	f.mu.Unlock()
}

// Cap returns the ring capacity.
func (f *FlightRecorder) Cap() int {
	if f == nil {
		return 0
	}
	return len(f.buf)
}

// Len returns the number of events currently held (≤ Cap).
func (f *FlightRecorder) Len() int {
	if f == nil {
		return 0
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.next < uint64(len(f.buf)) {
		return int(f.next)
	}
	return len(f.buf)
}

// Events returns a copy of the held events, oldest first.
func (f *FlightRecorder) Events() []Event {
	if f == nil {
		return nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	n := uint64(len(f.buf))
	start := uint64(0)
	count := f.next
	if f.next > n {
		start = f.next - n
		count = n
	}
	out := make([]Event, 0, count)
	for i := start; i < f.next; i++ {
		out = append(out, f.buf[i%n])
	}
	return out
}

// WriteJSONL dumps the held events as one JSON object per line, oldest
// first.
func (f *FlightRecorder) WriteJSONL(w io.Writer) error {
	for _, ev := range f.Events() {
		b, err := json.Marshal(ev)
		if err != nil {
			return err
		}
		b = append(b, '\n')
		if _, err := w.Write(b); err != nil {
			return err
		}
	}
	return nil
}
