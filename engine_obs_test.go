package partalloc_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"partalloc"
)

// obsFleet is the six-algorithm fleet the equivalence gate runs: every
// paper algorithm the engine benchmarks, with the options each requires.
func obsFleet() []struct {
	id   string
	algo partalloc.Algorithm
	opts []partalloc.Option
} {
	return []struct {
		id   string
		algo partalloc.Algorithm
		opts []partalloc.Option
	}{
		{"greedy", partalloc.AlgoGreedy, nil},
		{"basic", partalloc.AlgoBasic, nil},
		{"constant", partalloc.AlgoConstant, nil},
		{"periodic", partalloc.AlgoPeriodic, []partalloc.Option{partalloc.WithD(4)}},
		{"lazy", partalloc.AlgoLazy, []partalloc.Option{partalloc.WithD(2)}},
		{"random", partalloc.AlgoRandom, []partalloc.Option{partalloc.WithSeed(11)}},
	}
}

// TestObservedEngineMatchesUninstrumented is the observability
// equivalence gate: an engine with metrics and a flight recorder attached
// must produce byte-identical canonical ledgers to an uninstrumented
// engine for every algorithm — instrumentation observes, never steers.
func TestObservedEngineMatchesUninstrumented(t *testing.T) {
	fleet := obsFleet()
	streams := make(map[string][]partalloc.Event, len(fleet))
	for i, tc := range fleet {
		seq := partalloc.PoissonWorkload(partalloc.WorkloadConfig{N: 64, Arrivals: 700, Seed: int64(i + 1)})
		streams[tc.id] = seq.Events
	}
	build := func(opts ...partalloc.EngineOption) *partalloc.Engine {
		t.Helper()
		eng, err := partalloc.NewEngine(append([]partalloc.EngineOption{partalloc.WithBatchSize(128)}, opts...)...)
		if err != nil {
			t.Fatal(err)
		}
		m := partalloc.MustNewMachine(64)
		for _, tc := range fleet {
			if err := eng.AddTenant(tc.id, tc.algo, m, tc.opts...); err != nil {
				t.Fatal(err)
			}
		}
		if err := eng.Replay(context.Background(), streams); err != nil {
			t.Fatal(err)
		}
		return eng
	}

	plain := build()
	observed := build(partalloc.WithMetrics(partalloc.NewMetrics()), partalloc.WithFlightRecorder(512))
	for _, tc := range fleet {
		ps, err := plain.TenantStats(tc.id)
		if err != nil {
			t.Fatal(err)
		}
		os_, err := observed.TenantStats(tc.id)
		if err != nil {
			t.Fatal(err)
		}
		got, want := partalloc.CanonicalEngineStats(os_), partalloc.CanonicalEngineStats(ps)
		if !bytes.Equal(got, want) {
			t.Errorf("%s (%v): observed ledger diverged:\n--- observed ---\n%s--- plain ---\n%s",
				tc.id, tc.algo, got, want)
		}
	}

	// And the instrumented run actually recorded: series exist with the
	// names docs/OBSERVABILITY.md and scripts/obs-smoke.sh rely on.
	var scrape strings.Builder
	if err := observed.Metrics().WritePrometheus(&scrape); err != nil {
		t.Fatal(err)
	}
	for _, series := range []string{
		"partalloc_tenant_events_total",
		"partalloc_tenant_max_load",
		"partalloc_tenant_peak_load",
		"partalloc_tenant_lstar",
		"partalloc_tenant_queue_depth",
		"partalloc_tenant_breaker_state",
		"partalloc_tenant_apply_latency_seconds_bucket",
		"partalloc_shard_apply_latency_seconds_bucket",
	} {
		if !strings.Contains(scrape.String(), series) {
			t.Errorf("scrape missing series %s", series)
		}
	}
	if fr := observed.FlightRecorder(); fr == nil || fr.Len() == 0 {
		t.Error("flight recorder empty after an observed replay")
	}
	if plain.Metrics() != nil || plain.FlightRecorder() != nil {
		t.Error("uninstrumented engine reports observability accessors")
	}
}

// TestEngineOptionValidation is the ErrBadOption table: every invalid
// option fails construction with the sentinel on the chain and the
// option's name in the message.
func TestEngineOptionValidation(t *testing.T) {
	cases := []struct {
		name string
		opts []partalloc.EngineOption
	}{
		{"WithShards", []partalloc.EngineOption{partalloc.WithShards(0)}},
		{"WithBatchSize", []partalloc.EngineOption{partalloc.WithBatchSize(0)}},
		{"WithMaxQueue", []partalloc.EngineOption{partalloc.WithMaxQueue(-1)}},
		{"WithOverloadPolicy", []partalloc.EngineOption{partalloc.WithOverloadPolicy(partalloc.OverloadPolicy(99))}},
		{"WithDegradeBudget", []partalloc.EngineOption{partalloc.WithDegradeBudget(0)}},
		{"WithReplayWatchdog", []partalloc.EngineOption{partalloc.WithReplayWatchdog(-time.Second)}},
		{"WithBreaker", []partalloc.EngineOption{partalloc.WithBreaker(partalloc.BreakerConfig{Base: -time.Second})}},
		{"WithJournal", []partalloc.EngineOption{partalloc.WithJournal("")}},
		{"WithSnapshotEvery", []partalloc.EngineOption{partalloc.WithSnapshotEvery(0)}},
		{"WithJournalSegmentBytes", []partalloc.EngineOption{partalloc.WithJournalSegmentBytes(0)}},
		{"WithJournalSync", []partalloc.EngineOption{partalloc.WithJournalSync(partalloc.JournalSyncPolicy(99))}},
		{"WithMetrics", []partalloc.EngineOption{partalloc.WithMetrics(nil)}},
		{"WithFlightRecorder", []partalloc.EngineOption{partalloc.WithFlightRecorder(0)}},
		{"WithPoisonDump", []partalloc.EngineOption{partalloc.WithPoisonDump(nil)}},
		{"WithPoisonDump", []partalloc.EngineOption{partalloc.WithPoisonDump(&bytes.Buffer{})}}, // requires WithFlightRecorder
		{"WithPlacement", []partalloc.EngineOption{partalloc.WithPlacement(partalloc.PlacementPolicy(99))}},
		{"WithRebalanceD", []partalloc.EngineOption{partalloc.WithRebalanceD(0)}},
		{"WithRebalanceD", []partalloc.EngineOption{partalloc.WithRebalanceD(2)}}, // requires PlacementBalanced
		{"WithRebalanceEvery", []partalloc.EngineOption{partalloc.WithRebalanceEvery(0)}},
		{"WithRebalanceEvery", []partalloc.EngineOption{partalloc.WithRebalanceEvery(8)}}, // requires PlacementBalanced
		{"EngineOption", []partalloc.EngineOption{nil}},
	}
	for _, tc := range cases {
		if _, err := partalloc.NewEngine(tc.opts...); !errors.Is(err, partalloc.ErrBadOption) {
			t.Errorf("%s: error %v is not ErrBadOption", tc.name, err)
		} else if !strings.Contains(err.Error(), tc.name) {
			t.Errorf("%s: error %q does not name the option", tc.name, err)
		}
		if _, err := partalloc.RecoverEngine(t.TempDir(), tc.opts...); !errors.Is(err, partalloc.ErrBadOption) {
			t.Errorf("RecoverEngine %s: error %v is not ErrBadOption", tc.name, err)
		}
	}
	// The journal tuning options require WithJournal. RecoverEngine
	// implies the journal, so only NewEngine can break these rules.
	for _, tc := range []struct {
		name string
		opt  partalloc.EngineOption
	}{
		{"WithSnapshotEvery", partalloc.WithSnapshotEvery(4)},
		{"WithJournalSegmentBytes", partalloc.WithJournalSegmentBytes(1 << 10)},
		{"WithJournalSync", partalloc.WithJournalSync(partalloc.JournalSyncAlways)},
	} {
		if _, err := partalloc.NewEngine(tc.opt); !errors.Is(err, partalloc.ErrBadOption) {
			t.Errorf("%s without WithJournal: error %v is not ErrBadOption", tc.name, err)
		} else if !strings.Contains(err.Error(), tc.name) || !strings.Contains(err.Error(), "requires WithJournal") {
			t.Errorf("%s without WithJournal: error %q does not name the rule", tc.name, err)
		}
	}
	// The first invalid option wins when several are wrong.
	_, err := partalloc.NewEngine(partalloc.WithShards(-1), partalloc.WithBatchSize(0))
	if err == nil || !strings.Contains(err.Error(), "WithShards") {
		t.Errorf("accumulated error %v does not report the first bad option", err)
	}
}

// TestAllocatorOptionsWrapErrBadOption pins the New-side half of the
// sentinel: option/algorithm mismatches are ErrBadOption too.
func TestAllocatorOptionsWrapErrBadOption(t *testing.T) {
	m := partalloc.MustNewMachine(16)
	cases := []struct {
		name string
		algo partalloc.Algorithm
		opts []partalloc.Option
	}{
		{"WithD on non-reallocating", partalloc.AlgoGreedy, []partalloc.Option{partalloc.WithD(2)}},
		{"WithD missing", partalloc.AlgoPeriodic, nil},
		{"WithOrder on non-reallocating", partalloc.AlgoBasic, []partalloc.Option{partalloc.WithOrder(partalloc.ArrivalOrder)}},
		{"WithSeed on deterministic", partalloc.AlgoGreedy, []partalloc.Option{partalloc.WithSeed(3)}},
		{"WithFaults on randomized", partalloc.AlgoRandom, []partalloc.Option{partalloc.WithFaults(partalloc.FaultSchedule{})}},
	}
	for _, tc := range cases {
		if _, err := partalloc.New(tc.algo, m, tc.opts...); !errors.Is(err, partalloc.ErrBadOption) {
			t.Errorf("%s: error %v is not ErrBadOption", tc.name, err)
		}
	}
	top, err := partalloc.NewTopology("hypercube", 8)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := partalloc.New(partalloc.AlgoGreedy, m, partalloc.WithTopology(top)); !errors.Is(err, partalloc.ErrBadOption) {
		t.Errorf("mismatched topology size: %v is not ErrBadOption", err)
	}
}

// TestPoisonDumpThroughFacade checks the WithPoisonDump plumbing: a
// poisoned tenant flushes the flight recorder to the configured writer.
func TestPoisonDumpThroughFacade(t *testing.T) {
	var dump bytes.Buffer
	eng, err := partalloc.NewEngine(
		partalloc.WithMetrics(partalloc.NewMetrics()),
		partalloc.WithFlightRecorder(128),
		partalloc.WithPoisonDump(&dump))
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.AddTenant("t", partalloc.AlgoBasic, partalloc.MustNewMachine(4)); err != nil {
		t.Fatal(err)
	}
	// A duplicate arrival in one batch poisons the tenant.
	err = eng.Replay(context.Background(), map[string][]partalloc.Event{"t": {
		{Kind: partalloc.EventArrive, Task: 1, Size: 1},
		{Kind: partalloc.EventArrive, Task: 1, Size: 1},
	}})
	if !errors.Is(err, partalloc.ErrTenantPoisoned) {
		t.Fatalf("Replay error %v is not ErrTenantPoisoned", err)
	}
	if !strings.Contains(dump.String(), `"kind":"breaker-trip"`) {
		t.Errorf("poison dump missing the breaker-trip event:\n%s", dump.String())
	}
	// The dump is valid JSONL: every line is a JSON object.
	for i, line := range strings.Split(strings.TrimSpace(dump.String()), "\n") {
		if !strings.HasPrefix(line, "{") || !strings.HasSuffix(line, "}") {
			t.Errorf("dump line %d is not a JSON object: %q", i, line)
		}
	}
	var breakerState string
	var scrape strings.Builder
	if err := eng.Metrics().WritePrometheus(&scrape); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(scrape.String(), "\n") {
		if strings.HasPrefix(line, "partalloc_tenant_breaker_state") {
			breakerState = line
		}
	}
	if want := fmt.Sprintf("partalloc_tenant_breaker_state{tenant=%q} 1", "t"); breakerState != want {
		t.Errorf("breaker state gauge = %q, want %q", breakerState, want)
	}
}
