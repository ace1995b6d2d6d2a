#!/usr/bin/env bash
# Runs the root perf harness (BenchmarkPerf*) and snapshots the
# results as JSON so successive PRs leave a perf trajectory:
#
#   scripts/bench.sh [BENCH_1.json]
#
# BENCHTIME overrides the per-benchmark budget (default 2s).
# BENCHCOUNT overrides the repetition count (default 3): the whole
# harness runs BENCHCOUNT times and the snapshot records each
# benchmark's *minimum* ns/op and *maximum* bytes/allocs per op.
# Benchmark noise on shared hosts is one-sided — contention and
# frequency throttling only ever slow a run down — so min-of-N
# converges on the machine's true speed. The repetitions are whole
# passes over the harness rather than `go test -count`, which runs a
# benchmark's repetitions back-to-back: noise windows last minutes,
# so adjacent repetitions are correlated and min-of-N over them buys
# nothing, while passes spaced a full harness apart decorrelate. This
# is what keeps recorded baselines and bench_diff.sh's fresh runs
# comparable on hosts whose noise swings exceed the gate tolerance.
set -euo pipefail
cd "$(dirname "$0")/.."

out="${1:-BENCH_1.json}"
benchtime="${BENCHTIME:-2s}"
benchcount="${BENCHCOUNT:-3}"
tmp=$(mktemp)
trap 'rm -f "$tmp"' EXIT

for pass in $(seq "$benchcount"); do
    echo "== bench pass $pass/$benchcount =="
    go test -run '^$' -bench 'Perf' -benchmem -benchtime "$benchtime" \
        ./internal/matrix ./internal/core ./internal/network ./internal/obs \
        ./internal/serve ./internal/stream ./internal/trace . | tee -a "$tmp"
done

awk -v date="$(date -u +%Y-%m-%dT%H:%M:%SZ)" \
    -v goversion="$(go env GOVERSION)" \
    -v cpus="$(nproc)" '
BEGIN {
    printf "{\n  \"date\": \"%s\",\n  \"go\": \"%s\",\n  \"cpus\": %s,\n", date, goversion, cpus
    printf "  \"benchmarks\": [\n"
    n = 0
}
/^cpu:/ { sub(/^cpu: */, ""); cpu = $0 }
/^Benchmark/ {
    name = $1; sub(/-[0-9]+$/, "", name)
    iters = $2; nsop = $3
    bop = "null"; allocs = "null"
    for (i = 4; i <= NF; i++) {
        if ($(i+1) == "B/op") bop = $i
        if ($(i+1) == "allocs/op") allocs = $i
    }
    # Keep the fastest ns/op of the -count repetitions, but the
    # *maximum* bytes/allocs seen in any pass: time noise is one-sided
    # slow so min converges on true speed, while allocations on the
    # amortized paths (interval journal flushes, pool/map growth) vary
    # with the iteration count b.N, so the worst pass is the stable
    # conservative baseline for the alloc gate. Alloc-free benchmarks
    # stay pinned at 0 either way.
    if (!(name in min_ns) || nsop + 0 < min_ns[name] + 0) {
        min_ns[name] = nsop; min_it[name] = iters
    }
    if (!(name in max_b) || (bop != "null" && (max_b[name] == "null" || bop + 0 > max_b[name] + 0)))
        max_b[name] = bop
    if (!(name in max_a) || (allocs != "null" && (max_a[name] == "null" || allocs + 0 > max_a[name] + 0)))
        max_a[name] = allocs
    if (!(name in seen)) { seen[name] = 1; order[++n] = name }
}
END {
    for (i = 1; i <= n; i++) {
        name = order[i]
        if (i > 1) printf ",\n"
        printf "    {\"name\": \"%s\", \"iters\": %s, \"ns_per_op\": %s, \"bytes_per_op\": %s, \"allocs_per_op\": %s}", \
            name, min_it[name], min_ns[name], max_b[name], max_a[name]
    }
    printf "\n  ],\n  \"cpu\": \"%s\"\n}\n", cpu
}' "$tmp" > "$out"

echo "wrote $out"
