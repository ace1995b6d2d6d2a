#!/usr/bin/env bash
# Tier-1 gate: formatting, vet, build, the full test suite under the
# race detector, and a one-iteration smoke pass over the perf
# benchmarks. Every PR must leave this green.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== gofmt =="
fmt=$(gofmt -l .)
if [ -n "$fmt" ]; then
    echo "gofmt needed on:" >&2
    echo "$fmt" >&2
    exit 1
fi

echo "== go vet =="
go vet ./...

echo "== go build =="
go build ./...

echo "== go test -race + coverage =="
# One instrumented run feeds both gates: the race detector over the
# full suite, and the coverage ratchet against scripts/coverage_floor.txt
# (raise the floor when coverage rises; it must never fall below it).
scratch=$(mktemp -d)
bindir="$scratch/bin"
mkdir -p "$bindir"
# Artifacts (the replay SLO report, the recorded trace, the crash-smoke
# journal) land in CI_ARTIFACT_DIR when set, so the workflow can upload
# them even after a failure; locally they stay in the scratch dir and
# vanish with it.
artdir="${CI_ARTIFACT_DIR:-$scratch}"
mkdir -p "$artdir"

# Every daemon any smoke boots is registered here, and the one EXIT
# trap tears them all down. On a failing exit the trap also copies
# every daemon log into the artifact dir — the journal and the replay
# report are written straight into $artdir — so a red smoke always
# leaves its evidence uploadable, whichever smoke broke.
smoke_pids=()
cleanup() {
    rc=$?
    [ "${#smoke_pids[@]}" -gt 0 ] && kill "${smoke_pids[@]}" 2>/dev/null || true
    if [ "$rc" -ne 0 ] && [ "$artdir" != "$scratch" ]; then
        mkdir -p "$artdir/logs"
        cp "$bindir"/*.log "$artdir/logs/" 2>/dev/null || true
    fi
    rm -rf "$scratch"
}
trap cleanup EXIT
go test -race -covermode=atomic -coverprofile="$scratch/cover.out" ./...

echo "== coverage floor =="
floor=$(cat scripts/coverage_floor.txt)
total=$(go tool cover -func="$scratch/cover.out" | awk '/^total:/ {sub(/%/, "", $3); print $3}')
echo "total coverage ${total}% (floor ${floor}%)"
if awk -v t="$total" -v f="$floor" 'BEGIN { exit !(t < f) }'; then
    echo "coverage ${total}% fell below the floor ${floor}%" >&2
    exit 1
fi
# Ratchet nudge: when coverage clears the floor by more than 2 points,
# suggest raising the floor so the slack cannot silently erode. This
# never fails the build — raising the floor is a reviewed change.
if awk -v t="$total" -v f="$floor" 'BEGIN { exit !(t > f + 2) }'; then
    suggest=$(awk -v t="$total" 'BEGIN { printf "%.1f", t - 1 }')
    msg="coverage ${total}% is more than 2 points above the floor ${floor}%: consider raising scripts/coverage_floor.txt to ${suggest}"
    echo "$msg"
    if [ -n "${GITHUB_STEP_SUMMARY:-}" ]; then
        echo "### Coverage ratchet" >> "$GITHUB_STEP_SUMMARY"
        echo "$msg" >> "$GITHUB_STEP_SUMMARY"
    fi
fi

echo "== determinism at GOMAXPROCS=4 =="
# Seeded results must not depend on the core count: rerun the whole
# suite with more processors than the race pass above may have had.
# -p 1 runs one package's tests at a time, so the timing guards
# (TestPerfParallelConstructionGuard) do not compete with other test
# binaries for the host.
GOMAXPROCS=4 go test -p 1 -count=1 ./...

echo "== determinism at GOMAXPROCS=1 =="
# One processor takes par's serial path: the split E(T)'s forward and
# backward halves run one after the other on the calling goroutine,
# and the solver and serving suites must pass on that path too. The
# simulators' replications fan out through the same pool, so their
# golden bit pins run here serially and at 4 processors above.
GOMAXPROCS=1 go test -count=1 ./internal/core ./internal/serve \
    ./internal/sim ./internal/multiclass ./internal/stream

echo "== perfbench module =="
# perfbench is a separate module that compiles against the solver's
# public API, so an API change must keep it building and passing.
(cd perfbench && go vet ./... && go test ./...)

echo "== serve resilience (-race, uncached) =="
# The serving layer is concurrency-heavy (admission queue, breakers,
# singleflight, drain); run its suite explicitly and uncached so the
# race detector sees it on every CI pass.
go test -race -count=1 ./internal/serve

echo "== bench smoke (1 iteration) =="
# Discover every benchmark-bearing package instead of hand-listing
# them, so a new package's benchmarks cannot be silently skipped.
benchpkgs=$(grep -rl --include='*_test.go' -E '^func Benchmark' . \
    | xargs -n1 dirname | sort -u)
echo "benchmark packages:" $benchpkgs
go test -run '^$' -bench . -benchtime 1x $benchpkgs

echo "== bench_diff self-test =="
scripts/bench_diff.sh --self-test

echo "== fuzz seed smoke =="
# Each target's seed corpus runs as ordinary tests; a short -fuzz burst
# per target catches regressions the fixed seeds miss.
for entry in \
    internal/faultcheck:FuzzNetworkPipeline \
    internal/faultcheck:FuzzPHFit \
    internal/faultcheck:FuzzRobustSolve \
    internal/faultcheck:FuzzJournalReplay \
    internal/faultcheck:FuzzStreamSpec \
    internal/spec:FuzzSpecParse; do
    pkg=${entry%%:*}
    target=${entry##*:}
    go test -run '^$' -fuzz "^${target}\$" -fuzztime 5s "./$pkg"
done

echo "== stream sim-equivalence gate =="
# Blocking: the job-stream solver must agree with the discrete-event
# simulator within 3σ across the law × mode matrix (deterministic,
# poisson, bursty × open, closed). The nightly sim-equivalence job
# reruns this with an order of magnitude more replications.
go test -count=1 -run '^TestStreamSimEquivalence$' ./internal/stream

echo "== cmd exit-code smoke =="
go build -o "$bindir/" ./cmd/...

expect_exit() { # expected-status description command...
    local want=$1 what=$2; shift 2
    local got=0
    "$@" >/dev/null 2>&1 || got=$?
    if [ "$got" -ne "$want" ]; then
        echo "cmd smoke: $what: exit $got, want $want" >&2
        exit 1
    fi
}
expect_exit 0 "sweep ok"           "$bindir/sweep" -arch central -k 3 -var n -from 5 -to 10 -steps 2
expect_exit 0 "phfit ok"           "$bindir/phfit" -family h2 -mean 12 -cv2 10
expect_exit 0 "clustersim ok"      "$bindir/clustersim" -k 2 -n 6 -reps 50 -quiet
expect_exit 0 "finwl ok"           "$bindir/finwl" -exp fig3
expect_exit 2 "sweep bad arch"     "$bindir/sweep" -arch nope
expect_exit 2 "phfit bad family"   "$bindir/phfit" -family nope
expect_exit 2 "finwl bad exp"      "$bindir/finwl" -exp nope
expect_exit 1 "finwl timeout"      "$bindir/finwl" -exp tbl-sim -timeout 5ms

scrape_addr() { # logfile
    local a=""
    for _ in $(seq 1 100); do
        a=$(sed -n 's/^finwld listening on //p' "$1")
        [ -n "$a" ] && break
        sleep 0.1
    done
    if [ -z "$a" ]; then
        echo "smoke: daemon behind $1 never reported its address" >&2
        cat "$1" >&2
        exit 1
    fi
    echo "$a"
}
wait_healthy() { # addr — poll /healthz instead of sleeping blind
    for _ in $(seq 1 100); do
        curl -sf "http://$1/healthz" >/dev/null 2>&1 && return 0
        sleep 0.1
    done
    echo "smoke: daemon at $1 never became healthy" >&2
    exit 1
}
boot_daemon() { # name args... — boot a finwld, register it for
    # teardown, block until healthy; sets daemon_pid and daemon_addr.
    # FINWLD_BIN overrides the binary (the replay smoke boots the
    # race-instrumented build).
    local name=$1; shift
    local log="$bindir/$name.log"
    "${FINWLD_BIN:-$bindir/finwld}" "$@" >"$log" 2>&1 &
    daemon_pid=$!
    smoke_pids+=("$daemon_pid")
    daemon_addr=$(scrape_addr "$log")
    wait_healthy "$daemon_addr"
}
drain_daemon() { # pid name — SIGTERM and require a clean drain (0)
    local pid=$1 name=$2 rc=0
    kill -TERM "$pid"
    wait "$pid" || rc=$?
    if [ "$rc" -ne 0 ]; then
        echo "smoke: $name exit $rc after SIGTERM, want a clean drain (0)" >&2
        cat "$bindir/$name.log" >&2
        exit 1
    fi
}

echo "== finwld serve smoke =="
# Boot the daemon (admin listener on) on ephemeral ports, solve once
# over HTTP, assert a full-fidelity answer with a timings breakdown,
# scrape /metrics on both surfaces, then SIGTERM and require a clean
# drain (exit 0).
boot_daemon finwld -addr 127.0.0.1:0 -metrics-addr 127.0.0.1:0
finwld_pid=$daemon_pid
addr=$daemon_addr
admin_addr=$(sed -n 's/^finwld admin listening on //p' "$bindir/finwld.log")
if [ -z "$admin_addr" ]; then
    echo "finwld smoke: daemon never reported its admin address" >&2
    cat "$bindir/finwld.log" >&2
    exit 1
fi
body=$(curl -s -X POST -d '{"arch":"central","k":3,"n":10}' "http://$addr/solve")
if ! grep -q '"fidelity":"exact"' <<< "$body"; then
    echo "finwld smoke: unexpected /solve body: $body" >&2
    exit 1
fi
if ! grep -q '"timings"' <<< "$body"; then
    echo "finwld smoke: /solve body carries no timings breakdown: $body" >&2
    exit 1
fi
# The request log is structured: the solve above must appear as one
# JSON slog line carrying its request ID and status.
if ! grep -q '"msg":"request".*"status":200' "$bindir/finwld.log"; then
    echo "finwld smoke: no structured request-log line for the solve" >&2
    cat "$bindir/finwld.log" >&2
    exit 1
fi
# Both metric surfaces serve the same exposition: the admin listener
# and the service /metrics route; serve- and solver-stage families
# must be present and the request counter populated.
# (grep -q never sits downstream of curl here: under pipefail the
# early grep exit would EPIPE curl and flake the pipeline.)
for murl in "http://$admin_addr/metrics" "http://$addr/metrics"; do
    page=$(curl -s --retry 2 "$murl")
    for family in finwld_requests_total finwld_tier_total finwl_solves_total finwl_lu_factor_seconds_bucket; do
        if ! grep -q "^$family" <<< "$page"; then
            echo "finwld smoke: $murl missing metric family $family" >&2
            head -40 <<< "$page" >&2
            exit 1
        fi
    done
    if ! grep -q '^finwld_requests_total 1' <<< "$page"; then
        echo "finwld smoke: $murl request counter did not count the solve:" >&2
        grep '^finwld_requests_total' <<< "$page" >&2
        exit 1
    fi
done
# The sparse LU is the only level factorization: the K=3 solve above
# factored all three levels sparse, none dense.
page=$(curl -s --retry 2 "http://$addr/metrics")
if ! grep -q '^finwl_level_factorizations_total{path="dense"} 0$' <<< "$page" ||
    ! grep -Eq '^finwl_level_factorizations_total\{path="sparse"\} [1-9]' <<< "$page"; then
    echo "finwld smoke: level factorizations are not all sparse:" >&2
    grep '^finwl_level_factorizations_total' <<< "$page" >&2
    exit 1
fi
# pprof and expvar ride the admin listener only.
vars=$(curl -s "http://$admin_addr/debug/vars")
if ! grep -q '"cmdline"' <<< "$vars"; then
    echo "finwld smoke: /debug/vars not serving expvar" >&2
    exit 1
fi
pprof_status=$(curl -s -o /dev/null -w '%{http_code}' "http://$admin_addr/debug/pprof/")
if [ "$pprof_status" != 200 ]; then
    echo "finwld smoke: /debug/pprof/ status $pprof_status, want 200" >&2
    exit 1
fi
# Batch smoke: three same-network jobs through POST /batch must come
# back fully solved in one submission, and the batch counters must
# show the jobs shared a single chain (3 jobs, 1 group, 2 reuses).
batch=$(curl -s -X POST -d '[{"arch":"central","k":4,"n":12},{"arch":"central","k":4,"n":14},{"arch":"central","k":4,"n":16}]' "http://$addr/batch")
if [ "$(grep -o '"total_time":' <<< "$batch" | wc -l)" -ne 3 ]; then
    echo "finwld smoke: /batch did not solve all three jobs: $batch" >&2
    exit 1
fi
stats=$(curl -s "http://$addr/stats")
if ! grep -q '"batch_jobs":3' <<< "$stats" || ! grep -q '"batch_groups":1' <<< "$stats" \
    || ! grep -q '"batch_chain_reuse":2' <<< "$stats"; then
    echo "finwld smoke: batch counters disagree with one shared-chain group: $stats" >&2
    exit 1
fi
# Async smoke: submit the same shape through POST /jobs, poll the
# returned id to completion, and require all results retained.
accepted=$(curl -s -X POST -d '[{"arch":"central","k":4,"n":18},{"arch":"central","k":4,"n":20}]' "http://$addr/jobs")
poll=$(sed -n 's/.*"poll":"\([^"]*\)".*/\1/p' <<< "$accepted")
if [ -z "$poll" ]; then
    echo "finwld smoke: /jobs submission not accepted: $accepted" >&2
    exit 1
fi
job=""
for _ in $(seq 1 100); do
    job=$(curl -s "http://$addr$poll")
    grep -q '"state":"done"' <<< "$job" && break
    sleep 0.1
done
if ! grep -q '"state":"done"' <<< "$job"; then
    echo "finwld smoke: async job never finished: $job" >&2
    exit 1
fi
if [ "$(grep -o '"total_time":' <<< "$job" | wc -l)" -ne 2 ]; then
    echo "finwld smoke: async job results incomplete: $job" >&2
    exit 1
fi
# Stream smoke: an open job stream must come back exact with a drain
# time and one mean-tasks value per probe; a closed pool must come
# back exact with no drain outputs; a stream with no mode must be
# refused with a typed 400.
ostream=$(curl -s -X POST -d '{"arch":"central","k":2,"job_tasks":3,"jobs":2,"arrival":{"process":"poisson","mean":2},"probes":[0.5,2]}' "http://$addr/stream")
if ! grep -q '"fidelity":"exact"' <<< "$ostream" || ! grep -q '"mode":"open"' <<< "$ostream" \
    || ! grep -q '"mean_drain":' <<< "$ostream" \
    || [ "$(grep -o '"mean_tasks":\[[^]]*\]' <<< "$ostream" | grep -oc ',')" -ne 1 ]; then
    echo "finwld smoke: unexpected open /stream body: $ostream" >&2
    exit 1
fi
cstream=$(curl -s -X POST -d '{"arch":"central","k":2,"job_tasks":3,"customers":2,"think":{"process":"deterministic","mean":3},"probes":[1,4]}' "http://$addr/stream")
if ! grep -q '"fidelity":"exact"' <<< "$cstream" || ! grep -q '"mode":"closed"' <<< "$cstream" \
    || grep -q '"mean_drain":' <<< "$cstream"; then
    echo "finwld smoke: unexpected closed /stream body: $cstream" >&2
    exit 1
fi
badstream_status=$(curl -s -o "$scratch/badstream.json" -w '%{http_code}' \
    -X POST -d '{"k":2,"job_tasks":2}' "http://$addr/stream")
if [ "$badstream_status" != 400 ] || ! grep -q '"code":"invalid_model"' "$scratch/badstream.json"; then
    echo "finwld smoke: modeless stream not refused typed: $badstream_status $(cat "$scratch/badstream.json")" >&2
    exit 1
fi
# A 1ms deadline either degrades (deadline below the exact-tier
# estimate → tagged approximation) or, if request setup already ate the
# budget, cancels with a typed 504; both prove the deadline path
# end-to-end. The full (deadline × breaker) fidelity matrix is covered
# deterministically by the serve package tests.
degraded=$(curl -s -X POST -d '{"arch":"central","k":10,"n":50,"timeout_ms":1}' "http://$addr/solve")
if ! grep -Eq '"degraded_from"|"code":"canceled"' <<< "$degraded"; then
    echo "finwld smoke: 1ms deadline neither degraded nor canceled: $degraded" >&2
    exit 1
fi
drain_daemon "$finwld_pid" finwld

echo "== finwld fleet smoke =="
# Boot two replica daemons plus a router over them, solve through the
# router, SIGKILL whichever replica answered, and require the repeat
# request (same model, fresh population, so the same shard but a cold
# result cache) to come back correct via failover — then a clean
# SIGTERM drain of the router.
boot_daemon rep1 -addr 127.0.0.1:0 -quiet
rep1_pid=$daemon_pid
rep1_url="http://$daemon_addr"
boot_daemon rep2 -addr 127.0.0.1:0 -quiet
rep2_pid=$daemon_pid
rep2_url="http://$daemon_addr"
boot_daemon router -addr 127.0.0.1:0 -router "$rep1_url,$rep2_url" \
    -probe-interval 200ms
router_pid=$daemon_pid
router_addr=$daemon_addr
body=$(curl -s -X POST -d '{"arch":"central","k":3,"n":10}' "http://$router_addr/solve")
via=$(sed -n 's/.*"routed_via":"\([^"]*\)".*/\1/p' <<< "$body")
if [ -z "$via" ]; then
    echo "fleet smoke: routed solve carries no routed_via: $body" >&2
    exit 1
fi
owner_url=${via##* }
case "$owner_url" in
"$rep1_url") victim=$rep1_pid; survivor_url=$rep2_url ;;
"$rep2_url") victim=$rep2_pid; survivor_url=$rep1_url ;;
*)  echo "fleet smoke: routed_via $via names neither replica" >&2
    exit 1 ;;
esac
kill -KILL "$victim"
wait "$victim" 2>/dev/null || true
body=$(curl -s -X POST -d '{"arch":"central","k":3,"n":11}' "http://$router_addr/solve")
via=$(sed -n 's/.*"routed_via":"\([^"]*\)".*/\1/p' <<< "$body")
if ! grep -q '"total_time":' <<< "$body" || [ "${via##* }" != "$survivor_url" ]; then
    echo "fleet smoke: solve after SIGKILL of $owner_url did not fail over: $body" >&2
    cat "$bindir/router.log" >&2
    exit 1
fi
page=$(curl -s "http://$router_addr/metrics")
if ! grep -Eq '^finwl_fleet_failover_total [1-9]' <<< "$page"; then
    echo "fleet smoke: failover counter did not move:" >&2
    grep '^finwl_fleet' <<< "$page" >&2
    exit 1
fi
for rep_url in "$rep1_url" "$rep2_url"; do
    if ! grep -qF "finwl_fleet_replica_healthy{replica=\"$rep_url\"}" <<< "$page"; then
        echo "fleet smoke: /metrics missing health gauge for $rep_url" >&2
        grep '^finwl_fleet' <<< "$page" >&2
        exit 1
    fi
done
stats=$(curl -s "http://$router_addr/stats")
if ! grep -q '"mode":"router"' <<< "$stats" \
    || ! grep -Eq '"failovers":[1-9]' <<< "$stats"; then
    echo "fleet smoke: router /stats incoherent: $stats" >&2
    exit 1
fi
drain_daemon "$router_pid" router
kill -TERM "$rep1_pid" "$rep2_pid" 2>/dev/null || true

echo "== finwld crash-recovery smoke =="
# Journal-backed daemon, a multi-group async batch submitted under an
# Idempotency-Key, SIGKILL with no drain, then a restart over the same
# journal directory: the job must reach done with every result intact,
# and replaying the same key must map back to the same job ID.
jdir="$artdir/journal"
jobs_body='[{"arch":"central","k":9,"n":46},{"arch":"central","k":9,"n":48},{"arch":"central","k":10,"n":50}]'
boot_daemon crash1 -addr 127.0.0.1:0 -quiet -journal "$jdir" -fsync always
crash_pid=$daemon_pid
crash_addr=$daemon_addr
accepted=$(curl -s -X POST -H 'Idempotency-Key: ci-crash' -d "$jobs_body" "http://$crash_addr/jobs")
job_id=$(sed -n 's/.*"id":"\([^"]*\)".*/\1/p' <<< "$accepted")
if [ -z "$job_id" ]; then
    echo "crash smoke: /jobs submission not accepted: $accepted" >&2
    exit 1
fi
# SIGKILL immediately: the fsync-always journal is all the restart gets.
kill -KILL "$crash_pid"
wait "$crash_pid" 2>/dev/null || true
boot_daemon crash2 -addr 127.0.0.1:0 -quiet -journal "$jdir" -fsync always
crash_pid=$daemon_pid
crash_addr=$daemon_addr
job=""
for _ in $(seq 1 100); do
    job=$(curl -s "http://$crash_addr/jobs/$job_id")
    grep -q '"state":"done"' <<< "$job" && break
    sleep 0.1
done
if ! grep -q '"state":"done"' <<< "$job"; then
    echo "crash smoke: recovered job never finished: $job" >&2
    cat "$bindir/crash2.log" >&2
    exit 1
fi
if [ "$(grep -o '"total_time":' <<< "$job" | wc -l)" -ne 3 ]; then
    echo "crash smoke: recovered job lost results: $job" >&2
    exit 1
fi
again=$(curl -s -X POST -H 'Idempotency-Key: ci-crash' -d "$jobs_body" "http://$crash_addr/jobs")
again_id=$(sed -n 's/.*"id":"\([^"]*\)".*/\1/p' <<< "$again")
if [ "$again_id" != "$job_id" ]; then
    echo "crash smoke: replayed Idempotency-Key minted a new job: $again_id vs $job_id" >&2
    exit 1
fi
drain_daemon "$crash_pid" crash2

echo "== finwld replay smoke (-race) =="
# The SLO gate, end to end: boot a race-instrumented daemon, replay the
# committed 3-class example spec through all three serving surfaces
# with -gate (every class must hit its attainment target and zero
# untyped 5xx may appear), then prove trace determinism from the CLI:
# the recorded trace re-records byte-identically. The driver is the
# most concurrent client the server sees, so the -race build doubles
# as a client/server race probe.
go build -race -o "$bindir/finwld.race" ./cmd/finwld
FINWLD_BIN="$bindir/finwld.race" boot_daemon replay-srv -addr 127.0.0.1:0 -quiet
replay_pid=$daemon_pid
replay_addr=$daemon_addr
report="$artdir/replay-report.json"
rtrace="$artdir/replay-trace.jsonl"
"$bindir/finwld.race" -replay examples/spec-mixed.yaml -target "http://$replay_addr" \
    -record "$rtrace" -report "$report" -gate -time-scale 0.2
# The report must be well-formed: per-class attainment present, the
# latency-over-time timeline populated, the gate fields present, and
# zero untyped 5xx (a 5xx with no typed wire code is a crash, not a
# policy outcome).
for field in '"classes"' '"attainment"' '"timeline"' '"slo_met": true' '"untyped_5xx": 0'; do
    if ! grep -q "$field" "$report"; then
        echo "replay smoke: report missing $field:" >&2
        cat "$report" >&2
        exit 1
    fi
done
if grep -Eq '"untyped_5xx": [1-9]' "$report"; then
    echo "replay smoke: untyped 5xx responses in report:" >&2
    cat "$report" >&2
    exit 1
fi
# Determinism from the CLI: replaying the recorded trace and
# re-recording it must reproduce the file byte for byte.
"$bindir/finwld.race" -replay "$rtrace" -record "$scratch/replay-trace2.jsonl" >/dev/null
if ! cmp -s "$rtrace" "$scratch/replay-trace2.jsonl"; then
    echo "replay smoke: record → replay → re-record changed the trace bytes" >&2
    exit 1
fi
# The committed stream example replays through the same gate: both
# job-stream modes travel the /stream surface end to end under the
# race-instrumented daemon.
stream_report="$artdir/replay-stream-report.json"
"$bindir/finwld.race" -replay examples/spec-stream.yaml -target "http://$replay_addr" \
    -report "$stream_report" -gate -time-scale 0.2
for field in '"endpoint": "stream"' '"timeline"' '"slo_met": true' '"untyped_5xx": 0'; do
    if ! grep -q "$field" "$stream_report"; then
        echo "replay smoke: stream report missing $field:" >&2
        cat "$stream_report" >&2
        exit 1
    fi
done
drain_daemon "$replay_pid" replay-srv

echo "CI OK"
