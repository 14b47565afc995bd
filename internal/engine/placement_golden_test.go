package engine

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"partalloc/internal/fault"
	"partalloc/internal/task"
	"partalloc/internal/wal"
)

// The placement golden gate pins hash placement to the exact ledger
// bytes the pre-placement-layer engine produced. The golden file was
// generated against the hard-wired fnv routing (before the routing
// table existed) and must never be regenerated casually: byte-identity
// here is the proof that extracting the placement layer changed no
// observable tenant state for the default hash routing.
var updatePlacementGolden = flag.Bool("update-placement-golden", false,
	"rewrite testdata/hash_placement_golden.json from the current engine")

const placementGoldenPath = "testdata/hash_placement_golden.json"

// placementGoldenFleet covers all six algorithms, each with and without
// a fault schedule, so the gate exercises every allocator family through
// sharded ingestion, fault interleaving, and recovery.
func placementGoldenFleet(t *testing.T) []TenantSpec {
	t.Helper()
	algos := []struct {
		name string
		n    int
	}{
		{"basic", 32},
		{"greedy", 32},
		{"periodic", 64},
		{"lazy", 32},
		{"random", 64},
		{"constant", 32},
	}
	specs := make([]TenantSpec, 0, 2*len(algos))
	for i, al := range algos {
		variants := []bool{false, true}
		if al.name == "random" {
			// A_Rand rejects fault schedules (no FaultTolerant hook), so
			// it rides the gate fault-free.
			variants = variants[:1]
		}
		for _, faulty := range variants {
			spec := TenantSpec{
				ID:        fmt.Sprintf("%s-%d", al.name, boolInt(faulty)),
				Algorithm: al.name,
				N:         al.n,
			}
			switch al.name {
			case "periodic", "lazy":
				spec.D, spec.DSet = 2, true
			case "random":
				spec.Seed, spec.SeedSet = int64(40+i), true
			}
			if faulty {
				var buf bytes.Buffer
				fs := fault.Random(fault.RandomConfig{N: al.n, Events: 400, Failures: 2, Seed: int64(11 + i)})
				if err := fault.WriteText(&buf, fs); err != nil {
					t.Fatal(err)
				}
				spec.Faults = buf.String()
			}
			specs = append(specs, spec)
		}
	}
	return specs
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

func placementGoldenConfig(log *wal.Log) Config {
	return Config{Shards: 4, BatchSize: 32, MaxQueue: 128, Overload: Block, Journal: log, Rebuild: testRebuild}
}

func placementGoldenStreams(fleet []TenantSpec) map[string][]task.Event {
	streams := make(map[string][]task.Event, len(fleet))
	for i, spec := range fleet {
		streams[spec.ID] = testStream(spec.N, 600+37*i, int64(i+1))
	}
	return streams
}

// canonicalByTenant flattens an engine's fleet into tenant→canonical
// ledger bytes, the unit of comparison for every path below.
func canonicalByTenant(e *Engine) map[string]json.RawMessage {
	out := make(map[string]json.RawMessage)
	for _, st := range e.Stats() {
		out[st.Tenant] = json.RawMessage(CanonicalStats(st))
	}
	return out
}

// TestHashPlacementGolden drives the golden fleet through all three
// ingestion paths — journaled Submit, batched Replay, and Recover from
// the Submit path's journal — and requires every tenant's CanonicalStats
// to match the committed pre-refactor golden byte for byte.
func TestHashPlacementGolden(t *testing.T) {
	fleet := placementGoldenFleet(t)
	streams := placementGoldenStreams(fleet)

	// Path 1: journaled Submit, round-robin chunks across tenants so
	// shard interleaving mirrors production ingestion.
	dir := t.TempDir()
	log, err := wal.Open(dir, wal.Options{Sync: wal.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	eng := New(placementGoldenConfig(log))
	for _, spec := range fleet {
		addSpecTenant(t, eng, spec)
	}
	const chunk = 7
	for off := 0; ; off += chunk {
		busy := false
		for _, spec := range fleet {
			evs := streams[spec.ID]
			if off >= len(evs) {
				continue
			}
			busy = true
			end := off + chunk
			if end > len(evs) {
				end = len(evs)
			}
			if err := eng.Submit(spec.ID, evs[off:end]...); err != nil {
				t.Fatalf("submit %s: %v", spec.ID, err)
			}
		}
		if !busy {
			break
		}
	}
	if err := eng.FlushAll(); err != nil {
		t.Fatal(err)
	}
	got := canonicalByTenant(eng)

	if *updatePlacementGolden {
		if err := os.MkdirAll(filepath.Dir(placementGoldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		keys := make([]string, 0, len(got))
		for k := range got {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		ordered := make(map[string]json.RawMessage, len(got))
		for _, k := range keys {
			ordered[k] = got[k]
		}
		data, err := json.MarshalIndent(ordered, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(placementGoldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d tenants)", placementGoldenPath, len(got))
		return
	}

	raw, err := os.ReadFile(placementGoldenPath)
	if err != nil {
		t.Fatalf("golden missing (run with -update-placement-golden against the pre-refactor engine): %v", err)
	}
	var want map[string]json.RawMessage
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	compareCanonical(t, "submit", want, got)

	// Path 2: batched Replay on a journal-less engine.
	rep := New(placementGoldenConfig(nil))
	for _, spec := range fleet {
		addSpecTenant(t, rep, spec)
	}
	if err := rep.Replay(context.Background(), streams); err != nil {
		t.Fatal(err)
	}
	compareCanonical(t, "replay", want, canonicalByTenant(rep))

	// Path 3: Recover from the Submit path's journal.
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	rec, err := Recover(placementGoldenConfig(nil), dir, wal.Options{Sync: wal.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer rec.cfg.Journal.Close()
	compareCanonical(t, "recover", want, canonicalByTenant(rec))
}

// compactJSON strips formatting so the indented golden file and the
// engine's compact CanonicalStats bytes compare on content alone.
func compactJSON(t *testing.T, raw json.RawMessage) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.Compact(&buf, raw); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func compareCanonical(t *testing.T, path string, want, got map[string]json.RawMessage) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d tenants, golden has %d", path, len(got), len(want))
	}
	for id, w := range want {
		g, ok := got[id]
		if !ok {
			t.Errorf("%s: tenant %s missing", path, id)
			continue
		}
		if !bytes.Equal(compactJSON(t, w), compactJSON(t, g)) {
			t.Errorf("%s: %s diverges from pre-refactor golden:\n  want: %s\n  got:  %s", path, id, w, g)
		}
	}
}
