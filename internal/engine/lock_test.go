package engine

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"partalloc/internal/core"
	"partalloc/internal/task"
	"partalloc/internal/tree"
)

// parkAllocator wraps an allocator so that an armed Arrive parks until
// released: the tenant's apply stops inside it, holding the tenant's
// lock. It embeds the interface, so it is never core.BatchApplier, and
// the engine applies its events one by one.
type parkAllocator struct {
	core.Allocator
	armed   atomic.Bool
	parked  chan struct{} // closed once an armed Arrive has parked
	release chan struct{} // closed to let it go on
}

func (p *parkAllocator) Arrive(tk task.Task) tree.Node {
	if p.armed.CompareAndSwap(true, false) {
		close(p.parked)
		<-p.release
	}
	return p.Allocator.Arrive(tk)
}

// TestTenantLockIsolatesStripeMates parks one tenant's batch apply and
// checks that Submit, Flush, TenantStats and a forced balanced Rebalance
// that moves another tenant of the same stripe each complete within a
// bound. Each takes only its own tenant's lock (the pass: rebalMu and
// the moving tenant's), so none waits for the parked apply.
func TestTenantLockIsolatesStripeMates(t *testing.T) {
	const bound = 5 * time.Second
	eng := New(Config{Shards: 2, BatchSize: 4, Placement: PlacementBalanced,
		RebalanceD: 1, RebalanceEvery: 1 << 30})
	park := &parkAllocator{Allocator: core.NewGreedy(tree.MustNew(256)),
		parked: make(chan struct{}), release: make(chan struct{})}
	var released sync.Once
	let := func() { released.Do(func() { close(park.release) }) }
	t.Cleanup(let)
	// The fewest-tenants rule seats a and c on stripe 0 and b on stripe 1.
	if err := eng.AddTenant("a", park); err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"b", "c"} {
		if err := eng.AddTenant(id, core.NewGreedy(tree.MustNew(256))); err != nil {
			t.Fatal(err)
		}
	}
	if a, b, c := eng.route("a"), eng.route("b"), eng.route("c"); a != 0 || b != 1 || c != 0 {
		t.Fatalf("routes a, b, c = %d, %d, %d, want 0, 1, 0", a, b, c)
	}
	// Stripe 0 weighs a's 100 events and c's 8, stripe 1 nothing: the
	// plan moves c, below half the gap, and not a, above it.
	if err := eng.Submit("a", arrivals(1, 100, 1)...); err != nil {
		t.Fatal(err)
	}
	if err := eng.Submit("c", arrivals(1, 8, 1)...); err != nil {
		t.Fatal(err)
	}

	park.armed.Store(true)
	parkedErr := make(chan error, 1)
	go func() { parkedErr <- eng.Submit("a", arrivals(101, 4, 1)...) }()
	select {
	case <-park.parked:
	case <-time.After(bound):
		t.Fatal("tenant a's apply never parked")
	}

	// within runs call and fails the test if it has not returned in time.
	within := func(name string, call func() error) {
		t.Helper()
		done := make(chan error, 1)
		go func() { done <- call() }()
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		case <-time.After(bound):
			t.Fatalf("%s on tenant c did not complete within %v while tenant a's apply was parked", name, bound)
		}
	}
	within("Submit", func() error { return eng.Submit("c", arrivals(9, 2, 1)...) })
	within("Flush", func() error { return eng.Flush("c") })
	within("TenantStats", func() error {
		st, err := eng.TenantStats("c")
		if err == nil && (st.Events != 10 || st.Queued != 0) {
			err = fmt.Errorf("c applied %d events with %d queued, want 10 and 0", st.Events, st.Queued)
		}
		return err
	})
	within("Rebalance", func() error {
		moved, err := eng.Rebalance()
		if err == nil && (moved != 1 || eng.route("c") != 1) {
			err = fmt.Errorf("the pass moved %d tenants, c on stripe %d; want c moved to stripe 1", moved, eng.route("c"))
		}
		return err
	})

	let()
	if err := <-parkedErr; err != nil {
		t.Fatalf("parked Submit: %v", err)
	}
	if st, err := eng.TenantStats("a"); err != nil || st.Events != 104 {
		t.Fatalf("a after release: %d events (err %v), want 104", st.Events, err)
	}
}

// TestStripeLedgersUnderConcurrency runs every call that changes a
// stripe's ledgers at once on two journaled balanced engines whose
// tenants share stripes: Submit and Flush, poison pills whose breaker
// heals rebuild the tenant, due and forced rebalance passes, MoveTenant
// back and forth, and Stats and ShardStats readers. The ledgers are
// atomics that each tenant's lock holder moves by its own share, so
// once every call has returned, each stripe's Events, ApplyNs and
// Queued must equal the sums over the tenants routed to it. A tenant
// that takes no pill must also hold every event its calls accepted.
func TestStripeLedgersUnderConcurrency(t *testing.T) {
	const (
		tenants = 8 // s0..s5 start on the source, d0 and d1 on the destination
		submits = 400
		pillAt  = 100 // every pillAt-th submit of an even tenant is a pill
		burst   = 3
		batch   = 4
	)
	cfg := Config{Shards: 2, BatchSize: batch, Placement: PlacementBalanced, RebalanceD: 1,
		RebalanceEvery: 8, Rebuild: testRebuild, Breaker: BreakerConfig{Base: time.Nanosecond, Max: time.Nanosecond}}
	// On the shared fake clock a poisoned tenant's 1ns backoff has always
	// passed by its next call, so that call's probe heals it.
	clk := &fakeClock{step: 1}
	engines := make([]*Engine, 2)
	for i := range engines {
		c := cfg
		c.Journal = testJournal(t)
		engines[i] = New(c)
		engines[i].now = clk.tick
	}
	src, dst := engines[0], engines[1]
	ids := []string{"s0", "s1", "s2", "s3", "s4", "s5", "d0", "d1"}
	home := func(i int) int { return i / 6 }
	for i, id := range ids {
		addSpecTenant(t, engines[home(i)], TenantSpec{ID: id, Algorithm: "greedy", N: 16})
	}

	var (
		producers, loops sync.WaitGroup
		heals, movesX    atomic.Int64
		stop             = make(chan struct{})
		// accepted[i] counts the events that calls accepted for ids[i];
		// only its producer writes it.
		accepted = make([]int64, len(ids))
	)
	// call runs op on whichever engine holds id: a tenant MoveTenant has
	// taken away is unknown on the engine it left.
	call := func(id string, at *int, op func(*Engine) error) error {
		for tries := 0; ; tries++ {
			err := op(engines[*at])
			if !errors.Is(err, ErrUnknownTenant) || tries > 64 {
				return err
			}
			*at = 1 - *at
		}
	}
	for i, id := range ids {
		producers.Add(1)
		go func(i int, id string) {
			defer producers.Done()
			at := home(i)
			// Task 1 stays live; a batch of its arrivals is a pill that
			// poisons the tenant at its first event and applies nothing.
			if err := call(id, &at, func(e *Engine) error { return e.Submit(id, arrivals(1, 1, 1)...) }); err != nil {
				t.Errorf("%s: %v", id, err)
				return
			}
			accepted[i]++
			next := 2
			for k := 0; k < submits; k++ {
				// Each burst arrives burst tasks and departs them again in
				// the next, so the machine never fills.
				evs := arrivals(next, burst, 1)
				if k > 0 {
					for j := 0; j < burst; j++ {
						evs = append(evs, task.Event{Kind: task.Depart, Task: task.ID(next - burst + j), Size: 1})
					}
				}
				next += burst
				if err := call(id, &at, func(e *Engine) error { return e.Submit(id, evs...) }); err != nil {
					t.Errorf("%s: submit %d: %v", id, k, err)
					return
				}
				accepted[i] += int64(len(evs))
				if i%2 == 0 && k%pillAt == pillAt-1 {
					// Drain the queue so the pill's batch holds only the
					// pill, then poison and heal.
					pill := make([]task.Event, batch)
					for j := range pill {
						pill[j] = task.Event{Kind: task.Arrive, Task: 1, Size: 1}
					}
					err := call(id, &at, func(e *Engine) error {
						if err := e.Flush(id); err != nil {
							return err
						}
						return e.Submit(id, pill...)
					})
					if !errors.Is(err, ErrTenantPoisoned) {
						t.Errorf("%s: pill: %v, want ErrTenantPoisoned", id, err)
						return
					}
					if err := call(id, &at, func(e *Engine) error { return e.Flush(id) }); err != nil {
						t.Errorf("%s: heal: %v", id, err)
						return
					}
					heals.Add(1)
				}
				if k%7 == 2 {
					if err := call(id, &at, func(e *Engine) error { return e.Flush(id) }); err != nil {
						t.Errorf("%s: flush: %v", id, err)
						return
					}
				}
			}
		}(i, id)
	}
	// background runs op until stop closes.
	background := func(op func() error) {
		loops.Add(1)
		go func() {
			defer loops.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if err := op(); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	for _, e := range engines {
		background(func() error { _, err := e.Rebalance(); return err })
		background(func() error { e.Stats(); e.ShardStats(); return nil })
	}
	// The mover takes s1 and s3 across and back; a tenant poisoned or
	// mid-pill is refused and stays where it is.
	background(func() error {
		for _, id := range []string{"s1", "s3"} {
			from, to := src, dst
			if _, err := src.TenantStats(id); errors.Is(err, ErrUnknownTenant) {
				from, to = dst, src
			}
			err := from.MoveTenant(id, to)
			switch {
			case err == nil:
				movesX.Add(1)
			case errors.Is(err, ErrTenantPoisoned), errors.Is(err, ErrUnknownTenant):
			default:
				return fmt.Errorf("MoveTenant(%s): %w", id, err)
			}
		}
		return nil
	})

	// The background loops run until the producers are done.
	producers.Wait()
	close(stop)
	loops.Wait()

	t.Logf("%d heals, %d cross-engine moves, %d and %d rebalance moves", heals.Load(), movesX.Load(),
		src.RebalanceStats().Moves, dst.RebalanceStats().Moves)
	if want := int64(tenants / 2 * (submits / pillAt)); heals.Load() != want {
		t.Errorf("%d heals, want %d", heals.Load(), want)
	}
	if movesX.Load() == 0 {
		t.Error("no MoveTenant succeeded during the run")
	}
	resident := 0
	for name, e := range map[string]*Engine{"source": src, "destination": dst} {
		routes := e.Routes()
		events := make([]int64, cfg.Shards)
		applyNs := make([]int64, cfg.Shards)
		queued := make([]int, cfg.Shards)
		for _, st := range e.Stats() {
			events[routes[st.Tenant]] += st.Events
			applyNs[routes[st.Tenant]] += st.ApplyNs
			queued[routes[st.Tenant]] += st.Queued
		}
		for _, ss := range e.ShardStats() {
			resident += ss.Queued
			if ss.Events != events[ss.Shard] || ss.ApplyNs != applyNs[ss.Shard] || ss.Queued != queued[ss.Shard] {
				t.Errorf("%s stripe %d: Events %d, ApplyNs %d, Queued %d; its tenants sum to %d, %d and %d",
					name, ss.Shard, ss.Events, ss.ApplyNs, ss.Queued, events[ss.Shard], applyNs[ss.Shard], queued[ss.Shard])
			}
		}
	}
	// Odd tenants end two events short of a batch, so the Queued sums
	// compare real backlogs, not zeros.
	if resident == 0 {
		t.Error("no events left queued at the end")
	}
	// An odd tenant takes no pill, so every event a call accepted is
	// applied or queued on the engine that holds the tenant now: a call
	// that waited for a tenant MoveTenant took away starts over, and
	// never lands on the copy that left.
	for i, id := range ids {
		if i%2 == 0 {
			continue
		}
		st, err := src.TenantStats(id)
		if errors.Is(err, ErrUnknownTenant) {
			st, err = dst.TenantStats(id)
		}
		if err != nil {
			t.Errorf("%s: %v", id, err)
			continue
		}
		if got := st.Events + int64(st.Queued); got != accepted[i] {
			t.Errorf("%s: %d events applied and %d queued, but calls accepted %d", id, st.Events, st.Queued, accepted[i])
		}
	}
}
