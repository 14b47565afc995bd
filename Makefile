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
# its healing snapshot, the crash points of segment truncation,
# MoveTenant, the snapshot SIGKILL crash test, and the facade-level
# three-way recovery equivalence gate.
test-snapshot:
	go test -race -run 'TestSnapshot|TestRecoveryReadsOnlyTail|TestBreakerProbeRestoresFromSnapshot|TestBreakerRebuildsFromJournal|TestMoveTenant|TestSIGKILLSnapshotRecovery' -count=1 ./internal/engine/
	go test -race -run 'TestTruncateBeforeCrashPoints' -count=1 ./internal/wal/
	go test -race -run 'TestSnapshotRecoveryEquivalence' -count=1 .

# Placement suite under the race detector (docs/ENGINE.md, "Placement
# and rebalancing"): HashPlacer byte-identity goldens, BalancedPlacer
# plan determinism, the MoveTenant-through-placer regression, local
# moves relocating the same tenant without allocating, the Degrade
# ladder surviving a move, concurrent Submit during rebalance passes,
# the skew gate (balanced hot-shard peak backlog strictly below hash on
# a seeded zipf fleet, routes recovered exactly), and the SIGKILL
# mid-rebalance crash test that gates recovery on routing-table
# consistency.
test-placement:
	go test -race -run 'TestHashPlacementGolden|TestBalancedPlacer|TestMoveTenantRoutesThroughPlacer|TestMoveTenantLocalRelocates|TestDegradeClimbsAndRestores|TestConcurrentSubmitDuringRebalance|TestBalancedPlacementBeatsHashOnSkew|TestSIGKILLRebalanceRecovery' -count=1 ./internal/engine/

# Observability smoke (docs/OBSERVABILITY.md): boots `engined -listen`
# on a random port, scrapes /metrics, asserts the required series exist
# and the exposition parses, and checks the flight-recorder dump.
obs-smoke:
	./scripts/obs-smoke.sh

# Run the project's own analyzer suite (docs/LINTS.md): standalone over
# every package, then again through go vet's vettool protocol so both
# entry points stay healthy.
lint:
	go run ./cmd/partlint ./...
	go build -o /tmp/partlint ./cmd/partlint
	go vet -vettool=/tmp/partlint ./...

# Machine-readable findings for CI annotations and editors; exits 2 on
# findings like the plain run, with the JSON already written.
lint-json:
	go run ./cmd/partlint -json ./... > partlint.json

# Micro-benchmarks (batched vs serial apply, engine replay vs serial
# Simulate, journaled Submit, WAL append per sync policy, load-tree
# updates, searches and deferred batches, copy placement). The
# repository's end-to-end benchmark is perfbench (perfbench/README.md,
# BENCHMARK.json).
bench:
	go test -bench=. -benchmem ./internal/core/ ./internal/engine/ ./internal/wal/ ./internal/loadtree/ ./internal/copies/

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
