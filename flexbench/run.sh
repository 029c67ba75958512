#!/usr/bin/env bash
# Builds the benchmark program and a non-race flexwattsd from this checkout's
# sources, then runs one benchmark workload. Run it from the repository root:
#
#   bash flexbench/run.sh --workload serve-hot --seed 1 --seconds 10 --trace 0
#
# Every build product and Go cache lives under .bench_build, so the run reads
# and writes nothing outside the checkout.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/bin"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOFLAGS= CGO_ENABLED=0
# Left on, the go command forks a detached telemetry sidecar that outlives this
# run; switching telemetry off in the private config directory prevents that.
go telemetry off
go build -o "$build/bin/flexwattsd" ./cmd/flexwattsd >&2
(cd flexbench && go build -o "$build/bin/flexbench" .) >&2
exec "$build/bin/flexbench" -root "$root" -daemon "$build/bin/flexwattsd" -out "$build" "$@"
