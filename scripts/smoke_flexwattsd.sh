#!/usr/bin/env bash
# Smoke test for the flexwattsd serving daemon: build it with the race
# detector, boot it, hit /healthz and one experiment endpoint per format,
# and diff the served ASCII body against the committed golden. Run by
# `make smoke` locally and by the CI smoke job.
set -euo pipefail
cd "$(dirname "$0")/.."

PORT="${SMOKE_PORT:-18080}"
BASE="http://127.0.0.1:${PORT}"
BIN="$(mktemp -d)/flexwattsd"
OUT="$(mktemp -d)"

echo "== building flexwattsd (-race)"
go build -race -o "$BIN" ./cmd/flexwattsd

"$BIN" -addr "127.0.0.1:${PORT}" &
PID=$!
trap 'kill "$PID" 2>/dev/null || true; wait "$PID" 2>/dev/null || true' EXIT

echo "== waiting for /healthz"
for _ in $(seq 1 100); do
    if curl -fsS "$BASE/healthz" -o "$OUT/health.json" 2>/dev/null; then
        break
    fi
    sleep 0.2
done
grep -q '"status":"ok"' "$OUT/health.json"
echo "   healthz ok"

echo "== listing experiments"
curl -fsS "$BASE/v1/experiments" | grep -q '"id":"fig7"'

echo "== ascii body must equal the committed golden"
curl -fsS "$BASE/v1/experiments/tab1?format=ascii" -o "$OUT/tab1.ascii"
diff -u internal/experiments/testdata/tab1.golden "$OUT/tab1.ascii"
curl -fsS "$BASE/v1/experiments/fig4j?format=ascii" -o "$OUT/fig4j.ascii"
diff -u internal/experiments/testdata/fig4j.golden "$OUT/fig4j.ascii"
echo "   golden diff clean"

echo "== json body must parse"
curl -fsS "$BASE/v1/experiments/tab1?format=json" -o "$OUT/tab1.json"
python3 -m json.tool "$OUT/tab1.json" > /dev/null
grep -q '"id": "tab1"' "$OUT/tab1.json"

echo "== csv body must carry the header record"
curl -fsS "$BASE/v1/experiments/tab1?format=csv" | grep -q '^Domain,Description$'

echo "== evaluate batch"
curl -fsS -X POST "$BASE/v1/evaluate" -d '{
  "points": [
    {"pdn": "IVR", "tdp": 18, "workload": "multi-thread", "ar": 0.6},
    {"pdn": "FlexWatts", "tdp": 4, "workload": "single-thread", "ar": 0.5}
  ]
}' -o "$OUT/eval.json"
python3 -m json.tool "$OUT/eval.json" > /dev/null
grep -q '"etee"' "$OUT/eval.json"

echo "== graceful shutdown"
kill -TERM "$PID"
wait "$PID"
trap - EXIT
echo "smoke: all checks passed"
