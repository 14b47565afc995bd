package main

import (
	"bytes"
	"fmt"

	"partalloc"
)

// The correctness gates run outside the measured phase. Each takes the
// ledgers a round produced and the inputs it was fed, and returns an
// error on the first mismatch; any error makes the run refuse to report.

// gateApplied checks that every submitted event was applied exactly once
// and nothing is left queued.
func gateApplied(f *fleet, stats []partalloc.EngineTenantStats) error {
	if len(stats) != len(f.ids) {
		return fmt.Errorf("applied gate: engine reports %d tenants, fleet has %d", len(stats), len(f.ids))
	}
	for i, st := range stats {
		if st.Tenant != f.ids[i] {
			return fmt.Errorf("applied gate: tenant %d is %q, want %q", i, st.Tenant, f.ids[i])
		}
		if want := int64(len(f.streams[i])); st.Events != want || st.Queued != 0 {
			return fmt.Errorf("applied gate: tenant %s applied %d events with %d queued, want %d applied and none queued",
				st.Tenant, st.Events, st.Queued, want)
		}
		if st.BreakerState != "closed" {
			return fmt.Errorf("applied gate: tenant %s breaker is %s", st.Tenant, st.BreakerState)
		}
	}
	return nil
}

// canonical renders every tenant's ledger with wall-clock fields cleared.
func canonical(stats []partalloc.EngineTenantStats) [][]byte {
	out := make([][]byte, len(stats))
	for i, st := range stats {
		out[i] = partalloc.CanonicalEngineStats(st)
	}
	return out
}

// gateSameLedgers checks two canonical fleets are byte-equal: a recovered
// engine against the live one it was recovered from, or a later round
// against the first round over the same streams.
func gateSameLedgers(what string, want, got [][]byte) error {
	if len(want) != len(got) {
		return fmt.Errorf("%s: %d tenants, want %d", what, len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(want[i], got[i]) {
			return fmt.Errorf("%s: tenant %d ledger differs:\n  got  %s\n  want %s", what, i, got[i], want[i])
		}
	}
	return nil
}

// serialRef is what a serial Simulate of one tenant's stream says the
// engine's ledger must hold.
type serialRef struct {
	finalLoad int // load after the last event: the engine's MaxLoad
	peakLoad  int // highest load at the engine's batch boundaries
	lstar     int
	realloc   partalloc.ReallocStats
	migHops   int64
}

// serialRefs simulates every tenant's stream serially on a fresh
// allocator built exactly as AddTenant builds it. The engine samples
// PeakLoad only when a batch ends, so the reference reads the serial
// load at the same event counts, which schedule fixes.
func serialRefs(w *workload, f *fleet, plans [][]call) ([]serialRef, error) {
	ends := batchEnds(w, f, plans)
	refs := make([]serialRef, len(f.streams))
	for i, evs := range f.streams {
		a, err := w.newTenantAllocator(f, i)
		if err != nil {
			return nil, err
		}
		res := partalloc.Simulate(a, partalloc.Sequence{Events: evs}, partalloc.SimOptions{RecordSeries: true})
		ref := serialRef{finalLoad: res.FinalLoad, lstar: res.LStar, realloc: res.Realloc, migHops: res.MigHops}
		for _, e := range ends[i] {
			ref.peakLoad = max(ref.peakLoad, res.Series.Samples[e-1].MaxLoad)
		}
		refs[i] = ref
	}
	return refs, nil
}

// batchEnds runs the clients' calls through the engine's batching rule
// (apply whenever a tenant's queue reaches the batch size; Flush applies
// whatever is queued) and returns, per tenant, the event counts at which
// batches end. A tenant belongs to one client, so its calls arrive in
// that client's plan order.
func batchEnds(w *workload, f *fleet, plans [][]call) [][]int {
	ends := make([][]int, len(f.streams))
	queued := make([]int, len(f.streams))
	applied := make([]int, len(f.streams))
	for _, plan := range plans {
		for _, c := range plan {
			i := c.tenant
			if c.evs == nil {
				if queued[i] > 0 {
					applied[i] += queued[i]
					queued[i] = 0
					ends[i] = append(ends[i], applied[i])
				}
				continue
			}
			queued[i] += len(c.evs)
			for queued[i] >= w.batch {
				applied[i] += w.batch
				queued[i] -= w.batch
				ends[i] = append(ends[i], applied[i])
			}
		}
	}
	return ends
}

// gateSerial checks each tenant's MaxLoad, PeakLoad, LStar, ReallocStats
// and MigHops against its serial reference.
func gateSerial(refs []serialRef, stats []partalloc.EngineTenantStats) error {
	if len(refs) != len(stats) {
		return fmt.Errorf("serial gate: %d tenants, want %d", len(stats), len(refs))
	}
	for i, st := range stats {
		r := refs[i]
		if st.MaxLoad != r.finalLoad || st.PeakLoad != r.peakLoad || st.LStar != r.lstar ||
			st.Realloc != r.realloc || st.MigHops != r.migHops {
			return fmt.Errorf("serial gate: tenant %s: engine max/peak load %d/%d, L* %d, realloc %+v, mig hops %d; "+
				"serial Simulate %d/%d, %d, %+v, %d",
				st.Tenant, st.MaxLoad, st.PeakLoad, st.LStar, st.Realloc, st.MigHops,
				r.finalLoad, r.peakLoad, r.lstar, r.realloc, r.migHops)
		}
	}
	return nil
}

// gatePlacement checks a balanced engine after its rebalance passes: the
// post-pass audits found nothing, and the routing table sends every
// tenant to exactly one valid shard, the one its ledger lives on.
func gatePlacement(ids []string, shards int, routes map[string]int, shardStats []partalloc.EngineShardStats, rs partalloc.RebalanceStats) error {
	if len(rs.Violations) > 0 {
		return fmt.Errorf("placement gate: %d rebalance violations, first: %v", len(rs.Violations), rs.Violations[0])
	}
	if len(routes) != len(ids) {
		return fmt.Errorf("placement gate: %d routes for %d tenants", len(routes), len(ids))
	}
	perShard := make([]int, shards)
	for _, id := range ids {
		s, ok := routes[id]
		if !ok || s < 0 || s >= shards {
			return fmt.Errorf("placement gate: tenant %s routed to shard %d (present %v) of %d", id, s, ok, shards)
		}
		perShard[s]++
	}
	if len(shardStats) != shards {
		return fmt.Errorf("placement gate: %d shard ledgers, want %d", len(shardStats), shards)
	}
	for _, ss := range shardStats {
		if ss.Tenants != perShard[ss.Shard] {
			return fmt.Errorf("placement gate: shard %d holds %d tenants, routes send it %d", ss.Shard, ss.Tenants, perShard[ss.Shard])
		}
	}
	return nil
}
