package engine

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"testing"

	"partalloc/internal/task"
	"partalloc/internal/wal"
)

// TestConcurrentMultiTenantIngestion hammers the engine from many
// goroutines at once — per-tenant producers, a stats poller, and a
// replaying goroutine on disjoint tenants — and then verifies every
// tenant absorbed exactly its stream. Run under -race this is the
// engine's thread-safety gate. The journaled input runs the same
// traffic through a batched-fsync write-ahead journal and then demands
// that recovery reproduce every ledger byte for byte.
func TestConcurrentMultiTenantIngestion(t *testing.T) {
	for _, tc := range []struct {
		name      string
		journaled bool
	}{
		{"unjournaled", false},
		{"journaled", true},
	} {
		t.Run(tc.name, func(t *testing.T) { concurrentIngestion(t, tc.journaled) })
	}
}

func concurrentIngestion(t *testing.T, journaled bool) {
	const tenants = 10
	const events = 2000
	cfg := Config{Shards: 4, BatchSize: 64, Rebuild: testRebuild}
	walOpts := wal.Options{Sync: wal.SyncBatched}
	var dir string
	if journaled {
		dir = t.TempDir()
		log, err := wal.Open(dir, walOpts)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Journal = log
	}
	eng := New(cfg)

	ids := make([]string, tenants)
	streams := make(map[string][]task.Event, tenants)
	for i := range ids {
		ids[i] = fmt.Sprintf("tenant-%02d", i)
		spec := TenantSpec{ID: ids[i]}
		switch i % 4 {
		case 0:
			spec.Algorithm, spec.N = "basic", 64
		case 1:
			spec.Algorithm, spec.N, spec.D, spec.DSet = "periodic", 64, 2, true
		case 2:
			spec.Algorithm, spec.N, spec.D, spec.DSet = "lazy", 32, 1, true
		default:
			spec.Algorithm, spec.N, spec.Seed = "random", 128, int64(i)
		}
		addSpecTenant(t, eng, spec)
		streams[ids[i]] = testStream(spec.N, events/2, int64(i+1))
	}

	var wg sync.WaitGroup
	errCh := make(chan error, tenants+2)

	// Half the tenants ingest via concurrent Submit producers...
	for i := 0; i < tenants/2; i++ {
		wg.Add(1)
		go func(id string) {
			defer wg.Done()
			evs := streams[id]
			for off := 0; off < len(evs); off += 13 {
				end := off + 13
				if end > len(evs) {
					end = len(evs)
				}
				if err := eng.Submit(id, evs[off:end]...); err != nil {
					errCh <- err
					return
				}
			}
			errCh <- eng.Flush(id)
		}(ids[i])
	}

	// ...the other half via one Replay fanning out over the shards.
	replayStreams := make(map[string][]task.Event)
	for i := tenants / 2; i < tenants; i++ {
		replayStreams[ids[i]] = streams[ids[i]]
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		errCh <- eng.Replay(context.Background(), replayStreams)
	}()

	// A poller reads ledgers while ingestion is in flight.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			for _, st := range eng.Stats() {
				if st.Events < 0 {
					errCh <- fmt.Errorf("%s: negative event count", st.Tenant)
					return
				}
			}
		}
		errCh <- nil
	}()

	wg.Wait()
	close(errCh)
	for err := range errCh {
		if err != nil {
			t.Fatal(err)
		}
	}

	for _, id := range ids {
		st, err := eng.TenantStats(id)
		if err != nil {
			t.Fatal(err)
		}
		if want := int64(len(streams[id])); st.Events != want {
			t.Errorf("%s: applied %d events, want %d", id, st.Events, want)
		}
		if st.Queued != 0 {
			t.Errorf("%s: %d events still queued after flush", id, st.Queued)
		}
	}
	if !journaled {
		return
	}

	want := eng.Stats()
	if err := cfg.Journal.Close(); err != nil {
		t.Fatal(err)
	}
	cfg.Journal = nil
	rec, err := Recover(cfg, dir, walOpts)
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	defer rec.Journal().Close()
	got := rec.Stats()
	if len(got) != len(want) {
		t.Fatalf("recovered %d tenants, want %d", len(got), len(want))
	}
	for i := range want {
		if w, g := CanonicalStats(want[i]), CanonicalStats(got[i]); !bytes.Equal(w, g) {
			t.Errorf("tenant %s: recovered ledger diverges\n  live: %s\n  rec:  %s", want[i].Tenant, w, g)
		}
	}
}
