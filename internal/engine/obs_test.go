package engine

import (
	"bytes"
	"compress/gzip"
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"runtime/pprof"
	"testing"

	"partalloc/internal/core"
	"partalloc/internal/errs"
	"partalloc/internal/obs"
	"partalloc/internal/task"
	"partalloc/internal/topology"
	"partalloc/internal/tree"
)

// TestTenantOptionValidation is the AddTenant half of the ErrBadOption
// table: nil and inapplicable tenant options fail with the sentinel.
func TestTenantOptionValidation(t *testing.T) {
	a := func() core.Allocator { return core.NewBasic(tree.MustNew(8)) }
	cases := []struct {
		name string
		err  error
	}{
		{"nil option", New(Config{}).AddTenant("t", a(), nil)},
		{"WithTenantFaults(nil)", New(Config{}).AddTenant("t", a(), WithTenantFaults(nil))},
		{"WithTenantHost(nil)", New(Config{}).AddTenant("t", a(), WithTenantHost(nil))},
		{"WithTenantSpec empty ID", New(Config{}).AddTenant("t", a(), WithTenantSpec(TenantSpec{}))},
		{"WithTenantSpec ID mismatch", New(Config{}).AddTenant("t", a(), WithTenantSpec(TenantSpec{ID: "other", Algorithm: "basic", N: 8}))},
	}
	for _, tc := range cases {
		if !errors.Is(tc.err, errs.ErrBadOption) {
			t.Errorf("%s: error %v is not errs.ErrBadOption", tc.name, tc.err)
		}
	}
	// A valid spec with a matching ID is accepted.
	if err := New(Config{}).AddTenant("t", a(), WithTenantSpec(TenantSpec{ID: "t", Algorithm: "basic", N: 8})); err != nil {
		t.Errorf("matching spec rejected: %v", err)
	}
}

// TestWithTenantHostPricesMigrations checks that a hosted tenant's
// migrations are priced in network hops: A_C on a hypercube host moves
// tasks, so its MigHops ledger must be positive.
func TestWithTenantHostPricesMigrations(t *testing.T) {
	host, err := topology.NewHostNamed("hypercube", 16)
	if err != nil {
		t.Fatal(err)
	}
	e := New(Config{Shards: 1, BatchSize: 32})
	if err := e.AddTenant("t", core.NewConstant(host.Tree()), WithTenantHost(host)); err != nil {
		t.Fatal(err)
	}
	if err := e.Replay(context.Background(), map[string][]task.Event{"t": testStream(16, 500, 21)}); err != nil {
		t.Fatal(err)
	}
	st, _ := e.TenantStats("t")
	if st.MigHops == 0 {
		t.Error("hosted A_C tenant recorded no migration hops; host not attached?")
	}
	if st.Topology != host.Name() {
		t.Errorf("Topology = %q, want %q", st.Topology, host.Name())
	}
}

// burnOnArrive spends CPU inside the apply path so a profile taken
// around Replay has samples to label.
type burnOnArrive struct {
	core.Allocator
	burnt int
}

func (b *burnOnArrive) Arrive(tk task.Task) tree.Node {
	x := 0
	for i := 0; i < 50_000; i++ {
		x += i * i
	}
	b.burnt = x
	return b.Allocator.Arrive(tk)
}

// TestReplayProfileCarriesTenantLabels takes a CPU profile around an
// instrumented Replay and checks the pprof label keys and values reach
// the profile's string table — the contract cmd/engined's
// /debug/pprof/profile endpoint relies on.
func TestReplayProfileCarriesTenantLabels(t *testing.T) {
	if testing.Short() {
		t.Skip("CPU profiling run; skipped in -short")
	}
	sink := obs.NewSink(obs.NewMetrics(), nil)
	e := New(Config{Shards: 1, BatchSize: 64, Sink: sink})
	burner := &burnOnArrive{Allocator: core.NewBasic(tree.MustNew(16))}
	if err := e.AddTenant("labeled-tenant", burner); err != nil {
		t.Fatal(err)
	}
	stream := testStream(16, 2000, 5)

	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		t.Fatal(err)
	}
	err := e.Replay(context.Background(), map[string][]task.Event{"labeled-tenant": stream})
	pprof.StopCPUProfile()
	if err != nil {
		t.Fatal(err)
	}
	runtime.KeepAlive(burner.burnt)

	// The profile is a gzipped protobuf whose string table holds label
	// keys and values verbatim.
	zr, err := gzip.NewReader(&prof)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	// The algo label is the tenant's paper name (TenantStats.Algorithm),
	// not the Go type wrapping its allocator.
	for _, want := range []string{"tenant", "labeled-tenant", "shard", "algo", "A_B"} {
		if !bytes.Contains(raw, []byte(want)) {
			t.Errorf("profile missing label string %q", want)
		}
	}
}

// TestSinkLedgerAgreement cross-checks the metrics registry against the
// engine's own ledger after a replay: the counters must be derived from,
// never drift from, TenantStats.
func TestSinkLedgerAgreement(t *testing.T) {
	m := obs.NewMetrics()
	sink := obs.NewSink(m, obs.NewFlightRecorder(64))
	e := New(Config{Shards: 2, BatchSize: 32, Sink: sink})
	if err := e.AddTenant("t", core.NewGreedy(tree.MustNew(16))); err != nil {
		t.Fatal(err)
	}
	stream := testStream(16, 600, 3)
	if err := e.Replay(context.Background(), map[string][]task.Event{"t": stream}); err != nil {
		t.Fatal(err)
	}
	st, err := e.TenantStats("t")
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Counter(obs.MetricTenantEvents, "", obs.L("tenant", "t")).Value(); got != st.Events {
		t.Errorf("events counter = %d, ledger says %d", got, st.Events)
	}
	if got := m.Counter(obs.MetricTenantBatches, "", obs.L("tenant", "t")).Value(); got != st.Batches {
		t.Errorf("batches counter = %d, ledger says %d", got, st.Batches)
	}
	if got := m.Gauge(obs.MetricTenantPeakLoad, "", obs.L("tenant", "t")).Value(); got != int64(st.PeakLoad) {
		t.Errorf("peak-load gauge = %d, ledger says %d", got, st.PeakLoad)
	}
	if got := m.Gauge(obs.MetricTenantLStar, "", obs.L("tenant", "t")).Value(); got != int64(st.LStar) {
		t.Errorf("lstar gauge = %d, ledger says %d", got, st.LStar)
	}
	h := m.Histogram(obs.MetricTenantApplyLatency, "", obs.L("tenant", "t"))
	if got := h.Count(); got != st.Batches {
		t.Errorf("apply-latency histogram count = %d, ledger says %d batches", got, st.Batches)
	}
	if fr := sink.FlightRecorder(); fr.Len() == 0 {
		t.Error("flight recorder recorded nothing")
	}
}

// TestSinkRecordsRebalancePasses is the placement arm of the sink/ledger
// agreement gate: the rebalance counters must be derived from, never
// drift from, RebalanceStats, and every pass must land in the flight
// recorder with attrs that sum back to the ledger.
func TestSinkRecordsRebalancePasses(t *testing.T) {
	m := obs.NewMetrics()
	sink := obs.NewSink(m, obs.NewFlightRecorder(256))
	e := New(Config{Shards: 4, BatchSize: 8, Placement: PlacementBalanced,
		RebalanceD: 1, RebalanceEvery: 1 << 30, Rebuild: testRebuild, Sink: sink})
	weights := []int{8, 4, 2, 1, 1, 1}
	for i, w := range weights {
		id := fmt.Sprintf("t%d", i)
		addSpecTenant(t, e, TenantSpec{ID: id, Algorithm: "basic", N: 16})
		if err := e.Submit(id, arrivals(1+i*1000, 8*w, 1)...); err != nil {
			t.Fatal(err)
		}
	}
	for pass := 0; pass < 6; pass++ {
		if _, err := e.Rebalance(); err != nil {
			t.Fatalf("pass %d: %v", pass, err)
		}
	}

	st := e.RebalanceStats()
	if st.Passes != 6 {
		t.Fatalf("ledger counted %d passes, forced 6", st.Passes)
	}
	if len(st.Violations) != 0 {
		t.Fatalf("rebalance audit found violations: %v", st.Violations)
	}
	if got := m.Counter(obs.MetricRebalancePasses, "").Value(); got != st.Passes {
		t.Errorf("passes counter = %d, ledger says %d", got, st.Passes)
	}
	if got := m.Counter(obs.MetricRebalancePlanned, "").Value(); got != st.Planned {
		t.Errorf("planned counter = %d, ledger says %d", got, st.Planned)
	}
	if got := m.Counter(obs.MetricRebalanceMoves, "").Value(); got != st.Moves {
		t.Errorf("moves counter = %d, ledger says %d", got, st.Moves)
	}
	if got := m.Gauge(obs.MetricRebalanceBudget, "").Value(); got != int64(e.cfg.RebalanceD*e.cfg.Shards) {
		t.Errorf("budget gauge = %d, want d*shards = %d", got, e.cfg.RebalanceD*e.cfg.Shards)
	}

	var passEvents int64
	var movedSum, moveEvents int64
	for _, ev := range sink.FlightRecorder().Events() {
		switch ev.Kind {
		case obs.EventRebalancePass:
			passEvents++
			movedSum += ev.Attrs["moved"]
		case obs.EventRebalanceMove:
			moveEvents++
		}
	}
	if passEvents != st.Passes {
		t.Errorf("flight recorder holds %d pass events, ledger says %d", passEvents, st.Passes)
	}
	if movedSum != st.Moves {
		t.Errorf("pass events sum to %d moves, ledger says %d", movedSum, st.Moves)
	}
	if moveEvents != st.Moves {
		t.Errorf("flight recorder holds %d move events, ledger says %d moves", moveEvents, st.Moves)
	}
}
