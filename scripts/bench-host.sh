#!/bin/sh
# bench-host: print the JSON host object bench-snapshot records and
# bench-compare checks — CPU count, GOMAXPROCS, Go version and GOARCH — on
# one line. Numbers measured on different hosts are not comparable, so the
# regression gate refuses to compare across them.
set -eu

NPROC=$(nproc 2>/dev/null || getconf _NPROCESSORS_ONLN)
printf '{"nproc": %s, "gomaxprocs": %s, "go": "%s", "goarch": "%s"}\n' \
	"$NPROC" "${GOMAXPROCS:-$NPROC}" "$(go env GOVERSION)" "$(go env GOARCH)"
