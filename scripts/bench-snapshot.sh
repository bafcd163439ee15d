#!/bin/sh
# bench-snapshot: record the perf trajectory of the delegation hot path.
#
# Runs the delegation, index, and TPC-C microbenchmarks with -benchmem and
# rewrites BENCH_delegation.json at the repo root: a host object (CPU count,
# GOMAXPROCS, Go version, GOARCH; see bench-host.sh) and one record per
# benchmark: name, ns/op, allocs/op, B/op. Commit the file so regressions
# show up in review diffs across PRs; bench-compare refuses to compare
# against a baseline recorded on a different host.
#
# BENCHTIME tunes -benchtime (default 300ms: enough iterations for stable
# ns/op on the sub-microsecond benchmarks without a minutes-long run).
# Each benchmark runs COUNT times (default 3) and the per-benchmark MINIMUM
# ns/op is recorded — the same estimator bench-compare.sh uses, so both
# sides of the regression gate measure the same statistic (scheduling noise
# only ever slows a run down; the minimum is the stable floor).
set -eu

cd "$(dirname "$0")/.."

BENCHTIME="${BENCHTIME:-300ms}"
COUNT="${COUNT:-3}"
OUT="BENCH_delegation.json"
RAW="$(mktemp)"
trap 'rm -f "$RAW"' EXIT INT TERM

PATTERN='BenchmarkDelegation|BenchmarkServer|BenchmarkAblationBurstSize|BenchmarkAblationResponseBatching|BenchmarkAblationTxnMode|BenchmarkAblationBatchExec|BenchmarkIndex|BenchmarkTPCC|BenchmarkReadBypass|BenchmarkRecoveryReplay'

HOST=$(./scripts/bench-host.sh)

go test -run NONE -bench "$PATTERN" -benchmem -benchtime "$BENCHTIME" -count "$COUNT" . | tee "$RAW"

# Parse `BenchmarkName  N  12.3 ns/op  4 B/op  1 allocs/op` lines into JSON,
# folding the COUNT repeats of each benchmark to the minimum ns/op (the
# alloc figures are deterministic across repeats; the fastest run's are
# kept). The name is kept exactly as printed (Go appends a -GOMAXPROCS
# suffix when running on more than one proc; stripping it cannot be told
# apart from a numeric subbenchmark name, so we don't try).
awk -v host="$HOST" '
/^Benchmark/ && /ns\/op/ {
	name = $1
	ns = ""; bytes = ""; allocs = ""
	for (i = 2; i <= NF; i++) {
		if ($i == "ns/op")     ns = $(i-1)
		if ($i == "B/op")      bytes = $(i-1)
		if ($i == "allocs/op") allocs = $(i-1)
	}
	if (ns == "") next
	if (!(name in best)) order[n++] = name
	if (!(name in best) || ns + 0 < best[name] + 0) {
		best[name] = ns
		ba[name] = (allocs == "" ? 0 : allocs)
		bb[name] = (bytes == "" ? 0 : bytes)
	}
}
END {
	print "{"
	printf "  \"host\": %s,\n", host
	print "  \"benchmarks\": ["
	for (i = 0; i < n; i++) {
		name = order[i]
		printf "    {\"name\": \"%s\", \"ns_per_op\": %s, \"allocs_per_op\": %s, \"bytes_per_op\": %s}%s\n", \
			name, best[name], ba[name], bb[name], (i < n - 1 ? "," : "")
	}
	print "  ]"
	print "}"
}
' "$RAW" >"$OUT"

RECORDS=$(grep -c '"name"' "$OUT" || true)
if [ "$RECORDS" -eq 0 ]; then
	echo "bench-snapshot: no benchmark lines parsed" >&2
	exit 1
fi
echo "bench-snapshot: wrote $RECORDS records to $OUT (min ns/op of $COUNT runs) on host $HOST"
