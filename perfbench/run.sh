#!/usr/bin/env bash
# Builds cmd/finwld and the benchmark from source, then runs the
# benchmark with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload hot-repeat --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Every build output, cache and
# temporary file stays under .bench_build/ there.
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/finwld ]]; then
	echo "perfbench: run from the repository root (go.mod and cmd/finwld not found)" >&2
	exit 1
fi

out=.bench_build
mkdir -p "$out/tmp" "$out/config/go/telemetry"
root=$(pwd)
export GOCACHE="$root/$out/gocache" GOPATH="$root/$out/gopath" GOTMPDIR="$root/$out/tmp" \
	XDG_CONFIG_HOME="$root/$out/config" GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off
# With telemetry on ("local" is the default), the go command forks a
# detached upload process that outlives the build. Turn it off so the
# benchmark leaves no process behind.
echo off >"$out/config/go/telemetry/mode"

go build -o "$out/finwld" ./cmd/finwld
(cd perfbench && go build -o "$root/$out/perfbench" .)
exec "$out/perfbench" --finwld "$out/finwld" --out "$out" "$@"
