# Verification tiers. Tier-1 is the cheap always-on gate; tier-2 (verify)
# adds static checks, the race detector, and the chaos fault-injection
# suite, and is the bar for merging runtime/delegation changes.

GO ?= go

.PHONY: build test verify chaos bench bench-compare bench-full alloc-smoke obs-smoke wal-smoke net-smoke perfbench-build

build:
	$(GO) build ./...

# Tier-1: build + full test suite.
test: build
	$(GO) test ./...

# Tier-2: vet + race-detected tests + allocation gate on the delegation hot
# path. -short shrinks the chaos schedules (fewer sessions/seeds); drop it
# for the full sweep. The arm64 cross-build keeps the prefetch package's
# per-arch split (assembly on amd64, no-op elsewhere) compiling on a
# non-amd64 target.
verify: build perfbench-build obs-smoke alloc-smoke wal-smoke net-smoke
	$(GO) vet ./...
	GOARCH=arm64 $(GO) build ./...
	$(GO) test -race -short ./...

# Build and vet the benchmark module. perfbench/ has its own go.mod, so the
# root build never compiles it; this fails when an API it uses changes.
# The binary is discarded so nothing lands in the module directory.
perfbench-build:
	cd perfbench && GOFLAGS=-mod=readonly GOWORK=off $(GO) build -o /dev/null ./...
	cd perfbench && GOFLAGS=-mod=readonly GOWORK=off $(GO) vet ./...

# Fail if the unobserved synchronous delegation round trip allocates.
alloc-smoke:
	./scripts/alloc-smoke.sh

# Durability gate: shrunk WAL chaos golden-equality suite under -race plus
# the allocation check on the logged delegation round trip.
wal-smoke:
	./scripts/wal-smoke.sh

# End-to-end observability smoke: run a chaos schedule with the live
# endpoint up, scrape /metrics, and assert the injected faults show in the
# exported counters.
obs-smoke:
	./scripts/obs-smoke.sh

# End-to-end network front-end smoke: robustserved on a free port, a short
# mixed workload over TCP via robustycsb -addr, server counters asserted on
# /metrics, clean SIGTERM drain.
net-smoke:
	./scripts/net-smoke.sh

# The full-size chaos fault-injection suite on its own — both the WAL-off
# schedules (crash-with-data-loss envelope) and the TestChaosWAL* suite
# (crash-with-replay golden equality).
chaos:
	$(GO) test -race -run Chaos -v ./internal/harness/

# Record the delegation/index/TPC-C perf trajectory, with the host it ran
# on, into BENCH_delegation.json (commit the refreshed snapshot).
bench:
	./scripts/bench-snapshot.sh

# Re-run the snapshot benchmarks and fail on a >15% ns/op regression against
# the committed BENCH_delegation.json (THRESHOLD_PCT overrides the bar).
# Exits 2 without measuring when the baseline was recorded on another host.
bench-compare:
	./scripts/bench-compare.sh

# Every benchmark in the repo, including the paper-artefact regenerations.
bench-full:
	$(GO) test -run xxx -bench . -benchmem ./...
