#!/bin/sh
# bench-compare: guard the committed perf trajectory.
#
# Re-runs the snapshot benchmarks and compares fresh ns/op against the
# committed BENCH_delegation.json baseline. Fails when any benchmark
# regresses by more than THRESHOLD_PCT percent (default 15). Benchmarks
# present in only one side are reported and skipped — renames and new
# benchmarks don't fail the gate — but comparing nothing at all does.
#
# Each benchmark runs COUNT times (default 3) and the per-benchmark MINIMUM
# ns/op is compared (the estimator bench-snapshot.sh records): scheduling
# noise on a shared host only ever slows a run down, so the minimum is the
# stable estimate. Because noise windows can outlast one pass entirely —
# this repo's reference host is a single-CPU VM — benchmarks flagged on the
# first pass are re-measured up to CONFIRM_ROUNDS more times (suspects
# only) and every observation folds into the minimum. Extra samples can
# only lower the floor estimate, never raise it, so retries clear false
# positives but cannot wash out a genuine regression. BENCHTIME tunes
# -benchtime (default 300ms, like bench-snapshot).
#
# The baseline records the host it was measured on (bench-host.sh). When
# this host differs — CPU count, GOMAXPROCS, Go version or GOARCH — or the
# baseline records none, the script exits 2 without measuring anything:
# numbers from different hosts cannot pass or fail against each other.
# Re-record the baseline on this host (make bench at the commit to compare
# against) first.
set -eu

cd "$(dirname "$0")/.."

BASELINE="BENCH_delegation.json"
BENCHTIME="${BENCHTIME:-300ms}"
THRESHOLD_PCT="${THRESHOLD_PCT:-15}"
COUNT="${COUNT:-3}"
CONFIRM_ROUNDS="${CONFIRM_ROUNDS:-2}"

if [ ! -f "$BASELINE" ]; then
	echo "bench-compare: no $BASELINE baseline (run make bench first)" >&2
	exit 1
fi

HOST=$(./scripts/bench-host.sh)
BASE_HOST=$(sed -n 's/^ *"host": \(.*\),$/\1/p' "$BASELINE")
if [ "$BASE_HOST" != "$HOST" ]; then
	echo "bench-compare: $BASELINE was recorded on a different host; refusing to compare." >&2
	echo "  baseline host: ${BASE_HOST:-(none recorded)}" >&2
	echo "  this host:     $HOST" >&2
	echo "  Re-record the baseline on this host (make bench at the commit to compare against)." >&2
	exit 2
fi

PATTERN='BenchmarkDelegation|BenchmarkServer|BenchmarkAblationBurstSize|BenchmarkAblationResponseBatching|BenchmarkAblationTxnMode|BenchmarkAblationBatchExec|BenchmarkIndex|BenchmarkTPCC|BenchmarkReadBypass|BenchmarkRecoveryReplay'

RAW="$(mktemp)"
SUSPECTS="$(mktemp)"
trap 'rm -f "$RAW" "$SUSPECTS"' EXIT INT TERM

go test -run NONE -bench "$PATTERN" -benchmem -benchtime "$BENCHTIME" -count "$COUNT" . | tee "$RAW"

# evaluate reads the baseline plus every accumulated benchmark line, folds
# repeats to the per-benchmark minimum, and prints the comparison. In
# report mode it also writes the regressed names to $SUSPECTS; in final
# mode it exits nonzero on any remaining regression.
evaluate() {
	awk -v threshold="$THRESHOLD_PCT" -v suspects="$SUSPECTS" -v final="$1" '
NR == FNR {
	# Baseline JSON: one record per line after bench-snapshot formatting.
	if (match($0, /"name": "[^"]+"/)) {
		name = substr($0, RSTART + 9, RLENGTH - 10)
		if (match($0, /"ns_per_op": [0-9.]+/)) {
			base[name] = substr($0, RSTART + 13, RLENGTH - 13)
		}
	}
	next
}
/^Benchmark/ && /ns\/op/ {
	name = $1
	ns = ""
	for (i = 2; i <= NF; i++) if ($i == "ns/op") ns = $(i - 1)
	if (ns == "") next
	if (!(name in fresh) || ns + 0 < fresh[name] + 0) fresh[name] = ns
}
END {
	compared = 0
	failed = 0
	for (name in fresh) {
		if (!(name in base)) {
			if (final) printf "bench-compare: NEW      %-48s %12.1f ns/op (no baseline, skipped)\n", name, fresh[name]
			continue
		}
		compared++
		delta = (fresh[name] - base[name]) / base[name] * 100
		status = "ok"
		if (delta > threshold) {
			status = "REGRESSED"
			failed++
			print name > suspects
		}
		if (final || status == "REGRESSED") {
			printf "bench-compare: %-9s %-48s %12.1f -> %12.1f ns/op (%+6.1f%%)\n", \
				status, name, base[name], fresh[name], delta
		}
	}
	if (final) {
		for (name in base) {
			if (!(name in fresh)) {
				printf "bench-compare: GONE     %-48s (in baseline only, skipped)\n", name
			}
		}
		if (compared == 0) {
			print "bench-compare: no benchmarks compared against the baseline" > "/dev/stderr"
			exit 1
		}
		if (failed > 0) {
			printf "bench-compare: %d of %d benchmarks regressed more than %s%%\n", \
				failed, compared, threshold > "/dev/stderr"
			exit 1
		}
		printf "bench-compare: %d benchmarks within %s%% of the committed baseline\n", compared, threshold
	}
}
' "$BASELINE" "$RAW"
}

ROUND=0
while [ "$ROUND" -lt "$CONFIRM_ROUNDS" ]; do
	: >"$SUSPECTS"
	evaluate 0
	if [ ! -s "$SUSPECTS" ]; then
		break
	fi
	# Re-measure only the flagged benchmarks (top-level name: strip the
	# subbenchmark path and the -GOMAXPROCS suffix) and fold the new runs in.
	SUSPECT_PATTERN=$(sed 's|/.*||; s|-[0-9]*$||' "$SUSPECTS" | sort -u | paste -sd'|' -)
	ROUND=$((ROUND + 1))
	echo "bench-compare: confirm round $ROUND/$CONFIRM_ROUNDS: re-measuring suspects ($SUSPECT_PATTERN)"
	go test -run NONE -bench "^($SUSPECT_PATTERN)\$" -benchmem -benchtime "$BENCHTIME" -count "$COUNT" . >>"$RAW"
done

: >"$SUSPECTS"
evaluate 1
