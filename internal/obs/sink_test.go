package obs

import (
	"bytes"
	"strings"
	"testing"
)

// TestNilSinkIsSafe calls every Sink method through a nil receiver — the
// contract the uninstrumented engine hot path relies on.
func TestNilSinkIsSafe(t *testing.T) {
	var s *Sink
	if s.Now() != 0 {
		t.Fatal("nil Sink Now() != 0")
	}
	if s.Metrics() != nil || s.FlightRecorder() != nil {
		t.Fatal("nil Sink leaked components")
	}
	s.SetPoisonDump(&bytes.Buffer{})
	s.TenantRegistered("t")
	s.BatchApplied("t", 0, 1, 2, 3, 4, 5, 6, 7, 8)
	s.QueueDepth("t", 1)
	s.Shed("t", 1, 2)
	s.Degrade("t", 1, 2, true)
	s.BreakerTrip("t", 1, "cause")
	s.BreakerProbe("t", 1)
	s.BreakerHeal("t", 1)
	s.ForcedFault("t", 1, 2, 3)
	s.WALOpen()
	s.WALAppend(1, 2)
	s.WALFsync(1)
	s.WALRotate(1)
	s.WALRepair(1)
	s.WatchdogTimeout(1, 3)
	s.CellPanic(1)
}

func TestNewSinkBothNil(t *testing.T) {
	if NewSink(nil, nil) != nil {
		t.Fatal("NewSink(nil, nil) should be nil")
	}
}

func TestSinkUpdatesSeries(t *testing.T) {
	m := NewMetrics()
	s := NewSink(m, nil)
	s.TenantRegistered("alpha")
	s.BatchApplied("alpha", 2, 256, 1000, 5, 7, 3, 10, 4, 1)
	if got := m.Counter(MetricTenantEvents, "", L("tenant", "alpha")).Value(); got != 256 {
		t.Fatalf("events = %d, want 256", got)
	}
	if got := m.Gauge(MetricTenantMaxLoad, "", L("tenant", "alpha")).Value(); got != 5 {
		t.Fatalf("max_load = %d, want 5", got)
	}
	if got := m.Gauge(MetricTenantLStar, "", L("tenant", "alpha")).Value(); got != 3 {
		t.Fatalf("lstar = %d, want 3", got)
	}
	if got := m.Histogram(MetricShardApplyLatency, "", L("shard", "2")).Count(); got != 1 {
		t.Fatalf("shard histogram count = %d, want 1", got)
	}
	// Registration alone must surface the breaker-state gauge at 0.
	var buf bytes.Buffer
	if err := m.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), MetricTenantBreakerState+`{tenant="alpha"} 0`) {
		t.Fatalf("breaker state series missing from scrape:\n%s", buf.String())
	}
}

// TestDumpOnPoison wires a poison-dump writer and checks that a breaker
// trip flushes the flight recorder as JSONL, trip event included.
func TestDumpOnPoison(t *testing.T) {
	fr := NewFlightRecorder(16)
	fr.setClock(testClock())
	s := NewSink(NewMetrics(), fr)
	var dump bytes.Buffer
	s.SetPoisonDump(&dump)

	s.BatchApplied("alpha", 0, 128, 900, 2, 2, 1, 0, 0, 0)
	s.Shed("alpha", 3, 64)
	s.BreakerTrip("alpha", 1, "task size 3 not a power of two")

	out := dump.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("dump lines = %d, want 3:\n%s", len(lines), out)
	}
	if !strings.Contains(lines[2], `"kind":"`+EventBreakerTrip+`"`) {
		t.Fatalf("last dumped event is not the trip: %s", lines[2])
	}
	if !strings.Contains(lines[2], "power of two") {
		t.Fatalf("trip cause missing: %s", lines[2])
	}
	// A second trip dumps again (operators get the freshest window).
	dump.Reset()
	s.BreakerTrip("alpha", 2, "again")
	if dump.Len() == 0 {
		t.Fatal("second trip did not dump")
	}
}
