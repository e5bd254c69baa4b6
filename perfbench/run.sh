#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#   bash perfbench/run.sh --workload sweep|ingest|metro --seed N --seconds S --trace 0|1
#
# Everything the build and the run write stays under .bench_build/ at the
# repository root (build cache, binary, span files); the build never touches
# the network. The benchmark module imports the repository's module through
# a relative replace, so it builds only inside a checkout of the repository.
set -euo pipefail

root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$root"
out="$root/.bench_build"
mkdir -p "$out/tmp"

export GOTOOLCHAIN=local GOENV=off GOFLAGS= GOWORK=off GOPROXY=off GOSUMDB=off
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" GOTMPDIR="$out/tmp"

(cd perfbench && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
