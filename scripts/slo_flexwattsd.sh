#!/usr/bin/env bash
# SLO measurement for the flexwattsd serving daemon: build the daemon
# (with the race detector, so the measured build is the checked build),
# boot it, drive it with cmd/loadgen in both buffered and streaming mode,
# assert the service-level floor (non-zero throughput, zero 5xx at low
# offered load), and merge the numbers into the BENCH_<pr>.json perf
# record via cmd/benchjson. Run by `make slo` locally and by the CI
# slo-smoke job.
set -euo pipefail
cd "$(dirname "$0")/.."

PORT="${SLO_PORT:-18090}"
BASE="http://127.0.0.1:${PORT}"
RPS="${SLO_RPS:-40}"
BATCH="${SLO_BATCH:-64}"
DURATION="${SLO_DURATION:-5s}"
BENCH_JSON="${BENCH_JSON:-BENCH_10.json}"
# Grid sweep rate: 4096-point batches are ~64x heavier per request than the
# SLO batches, so the offered rate is kept conservative.
GRID_RPS="${SLO_GRID_RPS:-5}"
# Client worker counts for the grid sweep: each count re-runs the full
# batch-size sweep, so the perf record shows per-batch-size p99 + evals/s
# both serially and with concurrent requests contending for the daemon's
# pooled arenas.
GRID_WORKERS="${SLO_GRID_WORKERS:-1 4}"
# Optimizer search rate: each request is a 45-candidate design-space
# search, far heavier than an evaluate batch, and the daemon admits only
# DefaultMaxInflightOptimize of them at once.
OPT_RPS="${SLO_OPT_RPS:-2}"
BENCH_LABEL="${BENCH_LABEL:-current}"
TMP="$(mktemp -d)"

echo "== building flexwattsd (-race) and loadgen"
go build -race -o "$TMP/flexwattsd" ./cmd/flexwattsd
go build -o "$TMP/loadgen" ./cmd/loadgen

"$TMP/flexwattsd" -addr "127.0.0.1:${PORT}" &
PID=$!
trap 'kill "$PID" 2>/dev/null || true; wait "$PID" 2>/dev/null || true' EXIT

echo "== waiting for /healthz"
for _ in $(seq 1 100); do
    if curl -fsS "$BASE/healthz" -o /dev/null 2>/dev/null; then
        break
    fi
    sleep 0.2
done
curl -fsS "$BASE/healthz" | grep -q '"status":"ok"'

echo "== loadgen: buffered endpoint (${RPS} rps, batch ${BATCH}, ${DURATION})"
"$TMP/loadgen" -addr "$BASE" -rps "$RPS" -batch "$BATCH" -duration "$DURATION" \
    | tee "$TMP/bench.txt"

echo "== loadgen: streaming endpoint"
"$TMP/loadgen" -addr "$BASE" -rps "$RPS" -batch "$BATCH" -duration "$DURATION" -stream \
    | tee -a "$TMP/bench.txt"

echo "== loadgen: optimizer endpoint (${OPT_RPS} rps, ${DURATION})"
"$TMP/loadgen" -addr "$BASE" -rps "$OPT_RPS" -duration "$DURATION" -optimize \
    | tee -a "$TMP/bench.txt"

GRID_SWEEPS=0
for W in $GRID_WORKERS; do
    echo "== loadgen: grid batch-size sweep (64/512/4096 points, ${GRID_RPS} rps, ${W} workers)"
    "$TMP/loadgen" -addr "$BASE" -rps "$GRID_RPS" -duration "$DURATION" -grid -workers "$W" \
        | tee -a "$TMP/bench.txt"
    GRID_SWEEPS=$((GRID_SWEEPS + 1))
done

echo "== SLO floor: non-zero throughput, zero request errors at low load"
# The report line carries "<n> shed <n> request_errors"; at this offered
# load nothing may be shed or fail.
if grep -E ' [1-9][0-9]* (shed|request_errors)' "$TMP/bench.txt"; then
    echo "slo: FAILED — daemon shed or errored at low offered load" >&2
    exit 1
fi
# A line with 0 successful requests never prints (loadgen exits 1), so
# both evaluate endpoints, the optimizer scenario, and three grid batch
# sizes per worker count must each have sustained throughput to reach the
# expected line count.
WANT=$((3 + 3 * GRID_SWEEPS))
LINES=$(grep -c '^Benchmark' "$TMP/bench.txt")
if [ "$LINES" -ne "$WANT" ]; then
    echo "slo: FAILED — expected $WANT report lines, got $LINES" >&2
    exit 1
fi

echo "== 5xx counters must be zero"
curl -fsS "$BASE/metrics" -o "$TMP/metrics.txt"
if grep -E 'flexwattsd_requests_total\{[^}]*status="5xx"\} [1-9]' "$TMP/metrics.txt"; then
    echo "slo: FAILED — daemon served 5xx responses" >&2
    exit 1
fi
grep -q 'flexwattsd_points_evaluated_total' "$TMP/metrics.txt"
# The optimizer scenario must have booked candidates into its counter.
grep -Eq 'flexwattsd_optimize_candidates_total [1-9]' "$TMP/metrics.txt"

echo "== recording into ${BENCH_JSON}"
go run ./cmd/benchjson -label "$BENCH_LABEL" -out "$BENCH_JSON" < "$TMP/bench.txt"

echo "== graceful shutdown"
kill -TERM "$PID"
wait "$PID"
trap - EXIT
echo "slo: all checks passed"
