package partalloc_test

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"testing"

	"partalloc"
	"partalloc/internal/mathx"
)

// TestEngineFacadeMatchesSimulate drives the public Engine with
// option-built tenants and checks the ledgers agree with serial Simulate.
func TestEngineFacadeMatchesSimulate(t *testing.T) {
	eng, err := partalloc.NewEngine(partalloc.WithBatchSize(128))
	if err != nil {
		t.Fatal(err)
	}
	type tenantCfg struct {
		id   string
		algo partalloc.Algorithm
		opts []partalloc.Option
	}
	tenants := []tenantCfg{
		{"alpha", partalloc.AlgoBasic, nil},
		{"bravo", partalloc.AlgoPeriodic, []partalloc.Option{partalloc.WithD(2)}},
		{"charlie", partalloc.AlgoRandom, []partalloc.Option{partalloc.WithSeed(7)}},
		{"delta", partalloc.AlgoLazy, []partalloc.Option{partalloc.WithD(1)}},
	}
	m := partalloc.MustNewMachine(64)
	streams := make(map[string][]partalloc.Event)
	for i, tc := range tenants {
		if err := eng.AddTenant(tc.id, tc.algo, m, tc.opts...); err != nil {
			t.Fatal(err)
		}
		seq := partalloc.PoissonWorkload(partalloc.WorkloadConfig{N: 64, Arrivals: 500, Seed: int64(i + 1)})
		streams[tc.id] = seq.Events
	}
	if err := eng.Replay(context.Background(), streams); err != nil {
		t.Fatal(err)
	}
	for _, tc := range tenants {
		want := partalloc.Simulate(partalloc.MustNew(tc.algo, m, tc.opts...),
			partalloc.Sequence{Events: streams[tc.id]}, partalloc.SimOptions{})
		st, err := eng.TenantStats(tc.id)
		if err != nil {
			t.Fatal(err)
		}
		if st.MaxLoad != want.FinalLoad || st.LStar != want.LStar {
			t.Errorf("%s: engine (MaxLoad=%d, LStar=%d) vs Simulate (FinalLoad=%d, LStar=%d)",
				tc.id, st.MaxLoad, st.LStar, want.FinalLoad, want.LStar)
		}
		if !reflect.DeepEqual(st.Realloc, want.Realloc) {
			t.Errorf("%s: ReallocStats %+v, want %+v", tc.id, st.Realloc, want.Realloc)
		}
	}
}

// TestEngineFaultOptionAndSentinel is the engine-path sentinel check: a
// WithFaults tenant whose machine loses every PE returns (not panics) an
// error chain that errors.Is recognizes as both ErrTenantPoisoned and
// ErrMachineFull.
func TestEngineFaultOptionAndSentinel(t *testing.T) {
	eng, err := partalloc.NewEngine()
	if err != nil {
		t.Fatal(err)
	}
	m := partalloc.MustNewMachine(2)
	err = eng.AddTenant("doomed", partalloc.AlgoBasic, m, partalloc.WithFaults(partalloc.FaultSchedule{
		Events: []partalloc.FaultEvent{
			{At: 0, Kind: partalloc.FailPE, PE: 0},
			{At: 0, Kind: partalloc.FailPE, PE: 1},
		},
	}))
	if err != nil {
		t.Fatal(err)
	}
	err = eng.Replay(context.Background(), map[string][]partalloc.Event{
		"doomed": {{Kind: partalloc.EventArrive, Task: 1, Size: 1}},
	})
	if !errors.Is(err, partalloc.ErrTenantPoisoned) {
		t.Fatalf("Replay error %v is not ErrTenantPoisoned", err)
	}
	if !errors.Is(err, partalloc.ErrMachineFull) {
		t.Fatalf("Replay error %v does not wrap ErrMachineFull", err)
	}
	if err := eng.Err("doomed"); !errors.Is(err, partalloc.ErrMachineFull) {
		t.Errorf("Err(doomed) = %v", err)
	}

	// Invalid tenant configurations are rejected at AddTenant.
	if err := eng.AddTenant("bad", partalloc.AlgoPeriodic, m); err == nil {
		t.Error("AddTenant accepted AlgoPeriodic without WithD")
	}
	if err := eng.AddTenant("", 0, nil); err == nil {
		t.Error("AddTenant accepted a zero algorithm and nil machine")
	}
	if err := eng.AddTenant("doomed", partalloc.AlgoBasic, m); !errors.Is(err, partalloc.ErrDuplicateTenant) {
		t.Errorf("duplicate AddTenant = %v", err)
	}
	if err := eng.Submit("ghost"); !errors.Is(err, partalloc.ErrUnknownTenant) {
		t.Errorf("Submit to unknown tenant = %v", err)
	}
}

// TestEngineShardDefaults pins the shard count the options leave to the
// engine's defaults: min(GOMAXPROCS, 8) shards, rounded down to a power
// of two under PlacementBalanced, and an explicit WithShards kept as is.
// GOMAXPROCS is swept so the rounding runs whatever the host's CPU count.
func TestEngineShardDefaults(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	shards := func(opts ...partalloc.EngineOption) int {
		t.Helper()
		eng, err := partalloc.NewEngine(opts...)
		if err != nil {
			t.Fatal(err)
		}
		return len(eng.ShardStats())
	}
	for _, procs := range []int{1, 3, 6, 12} {
		runtime.GOMAXPROCS(procs)
		want := min(procs, 8)
		if got := shards(); got != want {
			t.Errorf("GOMAXPROCS=%d: NewEngine() has %d shards, want %d", procs, got, want)
		}
		if got := shards(partalloc.WithPlacement(partalloc.PlacementBalanced)); got != mathx.FloorPow2(want) {
			t.Errorf("GOMAXPROCS=%d: balanced default has %d shards, want %d", procs, got, mathx.FloorPow2(want))
		}
		if got := shards(partalloc.WithPlacement(partalloc.PlacementBalanced), partalloc.WithShards(4)); got != 4 {
			t.Errorf("GOMAXPROCS=%d: balanced WithShards(4) has %d shards, want 4", procs, got)
		}
	}
}
