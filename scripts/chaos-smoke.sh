#!/bin/sh
# chaos-smoke.sh — crash-recovery and chaos-soak smoke test (wired into
# CI and `make test-chaos`; see docs/ENGINE.md).
#
# It asserts the three robustness guarantees of the journaling engine:
#   1. SIGKILL transparency: an engine killed mid-ingest recovers from
#      its write-ahead journal with a ledger byte-identical to an
#      uninterrupted run (subprocess test, no simulated crash);
#   2. chaos survival: the seeded soak — poison pills, allocator stalls,
#      mid-batch PE faults, kill/recover cycles — finishes with audited
#      invariants clean, byte-identical recoveries, and every poisoned
#      tenant healed by the circuit breaker;
#   3. journaled concurrent ingestion: concurrent Submit, Replay and a
#      stats poller through a batched-fsync journal, then recovery
#      byte-identical to the live ledgers (the write-ahead path under
#      the race detector);
#   4. snapshot retention: periodic snapshots keep the journal bounded,
#      SIGKILL with truncation in flight still recovers byte-identically,
#      and O(tail) recovery is equivalence-gated against full replay;
#   5. placement under chaos: the balanced placer keeps rebalancing
#      through poison pills, stalls, and kill/recover cycles, every
#      recovery replays TypeMove records to the exact pre-crash routing
#      table, and the mid-rebalance SIGKILL test gates on
#      routing-table/membership consistency.
set -eu

echo "chaos-smoke: 1/5 SIGKILL mid-ingest recovery is byte-identical"
go test -race -run 'TestSIGKILLRecovery|TestRecoverMatchesUninterrupted' -count=1 ./internal/engine/

# The soak is race-instrumented: concurrent per-tenant ingestion, breaker
# probes, watchdog-abandoned workers, and recovery are exactly the
# concurrent paths worth watching. Two seeds so the injection schedule
# (which tenants are poisoned, when stalls land relative to crashes)
# is not a single lucky draw.
echo "chaos-smoke: 2/5 seeded chaos soak under the race detector"
go test -race -run 'TestChaosSoak/hash' -count=1 -v ./internal/engine/

echo "chaos-smoke: 3/5 journaled concurrent ingestion recovers byte-identically"
go test -race -run 'TestConcurrentMultiTenantIngestion/journaled' -count=1 ./internal/engine/

# The compaction test asserts the segment count stays bounded while the
# log keeps growing; the crash test SIGKILLs a child only after at least
# two truncations have landed; the facade equivalence test recovers the
# same fleet by full replay and by snapshot+tail, under hash and
# balanced placement, and demands both equal an uninterrupted run.
echo "chaos-smoke: 4/5 snapshot retention bounds the WAL; O(tail) recovery equivalence"
go test -race -run 'TestSnapshotCompactionBoundsLog|TestSIGKILLSnapshotRecovery' -count=1 ./internal/engine/
go test -race -run TestSnapshotRecoveryEquivalence -count=1 .

# The balanced soak forces a rebalance pass every round and gates each
# kill/recover cycle on routing-table identity; the subprocess test
# SIGKILLs an engine only after a TypeMove record is durable and demands
# the recovered routing table be a bijection to shard membership.
echo "chaos-smoke: 5/5 rebalance under poison pills and kill/recover"
go test -race -run 'TestChaosSoak/balanced' -count=1 -v ./internal/engine/
go test -race -run 'TestSIGKILLRebalanceRecovery' -count=1 ./internal/engine/

echo "chaos-smoke: OK"
