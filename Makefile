# Convenience targets; everything is plain `go` underneath.

.PHONY: all build test test-short test-race test-fault test-topology test-chaos test-snapshot test-placement obs-smoke lint lint-json bench experiments experiments-quick cover golden clean

all: build lint test

build:
	go build ./...
	go vet ./...

test:
	go test ./...

# Skips the multi-second stress tests; suitable for fast CI.
test-short:
	go test -short ./...

# Race-detector run over the short suite (the stress tests that matter
# for races are not short-gated, so this still exercises them).
test-race:
	go test -short -race ./...

# Fault-injection smoke: deterministic replay under faults, kill+resume
# byte-identity, and panicking-cell isolation (see docs/FAULTS.md).
test-fault:
	./scripts/fault-smoke.sh

# Topology suite under the race detector (docs/TOPOLOGIES.md): host
# construction and O(1) migration pricing vs brute force, the tree-host
# byte-identity golden, and the cross-topology trajectory equivalence of
# all six algorithms through Simulate and the engine.
test-topology:
	go test -race ./internal/topology/
	go test -race -run 'TestTreeHostGolden|TestCrossTopology' .

# Crash-recovery and chaos smoke: SIGKILL mid-ingest recovery
# byte-identity, the seeded chaos soak (TestChaosSoak) under -race, and
# journaled concurrent ingestion recovering byte-identically (see
# docs/ENGINE.md).
test-chaos:
	./scripts/chaos-smoke.sh

# Snapshot & compaction suite under the race detector (docs/ENGINE.md,
# "Snapshots & compaction"): snapshot recovery byte-identity, O(tail)
# scan accounting, retention bounding the journal, tenants whose latest
# snapshot is their genesis snapshot pinning it, recovered watermarks,
# breaker probes rebuilt from genesis and cadence snapshots (also while
# another shard compacts), a crash between a probe's rebuild record and
# its healing snapshot, the crash points of segment truncation, the
# background seal of a rotated segment (every crash state it can leave,
# a corrupt sealed segment, a journal written before segment headers,
# Sync and Close waiting for a blocked seal, a failed seal or directory
# fsync sticking) and a headerless journal recovering,
# MoveTenant (an audit ledger kept between audited engines; refusals of
# an unaudited tenant into an audited engine and of a queue above
# MaxQueue, which Recover refuses too; a thawed queue of several
# batches drained before a top-up), the snapshot SIGKILL crash test,
# and the facade-level three-way recovery equivalence gate.
test-snapshot:
	go test -race -run 'TestSnapshot|TestRecoveryReadsOnlyTail|TestBreakerProbeRestoresFromSnapshot|TestBreakerRebuildsFromJournal|TestMoveTenant|TestSIGKILLSnapshotRecovery' -count=1 ./internal/engine/
	go test -race -run 'TestTruncateBefore|TestSeal|TestAppendRefusesSegmentHeader' -count=1 ./internal/wal/
	go test -race -run 'TestSnapshotRecoveryEquivalence' -count=1 .

# Placement suite under the race detector (docs/ENGINE.md, "Placement
# and rebalancing"): hash placement's byte-identity goldens, balanced
# placement's plan determinism and levelling rule (a move takes a
# tenant below half the hot-to-cold gap, so every move lowers the
# larger load and a levelled fleet plans nothing; seeded property
# cases), its fewest-tenants rule for new tenants, the pass cadence
# counted from a forced pass's start and from a due pass's due point, a
# pass that moves nothing completing while a tenant's lock is held, the
# load meters read by passes while tenants apply, poison and heal (ten
# times over), a pass falling due inside Replay, a
# breaker heal keeping the load estimate, the MoveTenant routing
# regression, local moves relocating the same tenant without
# allocating, the Degrade ladder surviving a move, concurrent Submit,
# registration and cross-engine moves during rebalance passes,
# Tenants and Stats listing each tenant once while
# tenants move, the skew gate (balanced hot-shard peak backlog strictly
# below hash on a seeded zipf fleet at 8 shards, routes recovered
# exactly at 6 and 8), the SIGKILL mid-rebalance crash test that
# gates recovery on routing-table consistency, a tenant's calls and a
# pass moving it completing while a stripe-mate's apply is parked (the
# lock per tenant), and the stripe ledgers summing their tenants after
# a concurrent run of every call that moves them.
test-placement:
	go test -race -run 'TestHashPlacementGolden|TestBalancedPlacer|TestRebalanceCadenceCountsFromPassStart|TestRebalanceCadenceCountsFromDuePoint|TestRebalancePassMeasuresWithoutStripeLocks|TestReplayRunsDuePass|TestBreakerHealKeepsLoadEstimate|TestMoveTenantRoutesThroughPlacer|TestMoveTenantLocalRelocates|TestDegradeClimbsAndRestores|TestConcurrentSubmitDuringRebalance|TestListingsSeeEachTenantOnce|TestBalancedPlacementBeatsHashOnSkew|TestSIGKILLRebalanceRecovery|TestTenantLockIsolatesStripeMates|TestStripeLedgersUnderConcurrency' -count=1 ./internal/engine/
	go test -race -run 'TestRebalanceMeterDuringHeals' -count=10 ./internal/engine/

# Observability smoke (docs/OBSERVABILITY.md): boots `engined -listen`
# on a random port, scrapes /metrics, asserts the required series exist
# and the exposition parses, and checks the flight-recorder dump.
obs-smoke:
	./scripts/obs-smoke.sh

# Run the project's own analyzer suite (docs/LINTS.md): standalone over
# every package, then again through go vet's vettool protocol so both
# entry points stay healthy. Last, internal/engine's non-test
# //lint:ignore directives are counted: each one argues a lock rule in
# prose instead of having it checked, so the count may fall but must not
# rise above LINT_IGNORE_MAX (ROADMAP item 9).
LINT_IGNORE_MAX := 8

lint:
	go run ./cmd/partlint ./...
	go build -o /tmp/partlint ./cmd/partlint
	go vet -vettool=/tmp/partlint ./...
	@n=$$(grep -h '//lint:ignore ' $$(ls internal/engine/*.go | grep -v '_test\.go$$') | wc -l); \
	if [ $$n -gt $(LINT_IGNORE_MAX) ]; then \
		echo "internal/engine has $$n non-test //lint:ignore directives, above LINT_IGNORE_MAX=$(LINT_IGNORE_MAX)"; \
		exit 1; \
	fi

# Machine-readable findings for CI annotations and editors; exits 2 on
# findings like the plain run, with the JSON already written.
lint-json:
	go run ./cmd/partlint -json ./... > partlint.json

# Micro-benchmarks (batched vs serial apply, engine replay vs serial
# Simulate, journaled Submit, two submitters on tenants of one stripe,
# Submit bursts of several batches, the
# balanced placer's rebalance plan and passes with and without a
# concurrent submitter, WAL append per sync policy, load-tree updates,
# searches and deferred batches, copy placement, histogram
# observations). The repository's end-to-end benchmark is perfbench
# (perfbench/README.md, BENCHMARK.json).
bench:
	go test -bench=. -benchmem ./internal/core/ ./internal/engine/ ./internal/wal/ ./internal/loadtree/ ./internal/copies/ ./internal/obs/

# Regenerate every experiment artifact (E1–E14) at paper scale.
experiments:
	go run ./cmd/experiments -run all

experiments-quick:
	go run ./cmd/experiments -run all -quick

cover:
	go test -cover ./...

# Refresh the golden snapshots after an intentional behavior change.
golden:
	go test ./internal/experiments -run Golden -update-golden

clean:
	go clean ./...
