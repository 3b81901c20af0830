#!/usr/bin/env bash
# Builds phpsafed and the benchmark from this checkout, then runs one
# workload. Run from the repository root:
#
#   bash perfbench/run.sh --workload corpus-batch --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build in
# the current directory (Go's build cache included). Build output goes
# to stderr; the last line on stdout is the result object.
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/phpsafed || ! -f perfbench/go.mod ]]; then
  echo "perfbench: run from the repository root (go.mod, cmd/phpsafed and perfbench/ must exist)" >&2
  exit 2
fi

build="$PWD/.bench_build"
mkdir -p "$build/gocache" "$build/gopath" "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" \
  TMPDIR="$build/tmp" GOTOOLCHAIN=local GOFLAGS= CGO_ENABLED=0

go build -o "$build/phpsafed" ./cmd/phpsafed >&2
(cd perfbench && go build -o "$build/perfbench" .) >&2

exec "$build/perfbench" -daemon "$build/phpsafed" -workdir "$build/tmp" "$@"
