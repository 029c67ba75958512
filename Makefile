# Local dev and CI run the same targets (ci.yml calls make).
GO ?= go

# Root benchmarks recorded in the BENCH_<pr>.json perf trajectory. The
# alternatives must not contain "/": go test splits -bench on slashes and
# applies each piece per sub-benchmark level, so a top-level name match
# runs all of its sub-benchmarks (BenchmarkEvaluateGrid covers every
# kind/mode variant plus the Looped scalar reference).
BENCHES ?= BenchmarkEvaluateETEE|BenchmarkEvaluateGrid|BenchmarkReferenceSim|BenchmarkPredictor$$|BenchmarkSuiteSerial|BenchmarkSuiteParallel|BenchmarkTraceSim|BenchmarkCompareOnTraces|BenchmarkOptimize
BENCHTIME ?= 1s
BENCH_LABEL ?= current
# PR 10 migrated the perf record from BENCH_9.json: BENCH_10's "baseline"
# run carries BENCH_9's committed "current" numbers forward, so the gate
# still compares against the pre-PR trajectory. Gate against the old file
# explicitly with BENCH_JSON=BENCH_9.json if needed during migration.
BENCH_JSON ?= BENCH_10.json
# Allowed fractional regression before bench-check fails. Generous by
# default because shared CI runners are noisy (±40% run-to-run on this
# suite); tighten locally with BENCH_TOLERANCE=0.15 on a quiet machine.
BENCH_TOLERANCE ?= 0.60
# The slo target records under its own label so daemon SLO numbers and
# root benchmarks coexist in one BENCH_<pr>.json.
SLO_LABEL ?= slo

# Pinned analysis-tool versions, installed on demand by `go run` (CI) —
# bump deliberately, not implicitly.
STATICCHECK_VERSION ?= 2025.1.1
GOVULNCHECK_VERSION ?= v1.1.4

.PHONY: all build test race bench bench-json bench-check lint fmt ci smoke slo fuzz-smoke flexbench staticcheck govulncheck

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# -shuffle=on randomizes test (and package-level subtest) execution order
# each run, so the race job also flushes out inter-test state dependence.
race:
	$(GO) test -race -shuffle=on ./...

# Benchmark smoke run: every benchmark once, so CI catches bit-rot without
# paying for full measurement.
bench:
	$(GO) test -bench=. -benchtime=1x ./...

# Record the perf trajectory: run the root benchmarks and merge the numbers
# (ns/op, B/op, allocs/op per benchmark) into $(BENCH_JSON) under
# $(BENCH_LABEL). Committed baselines under other labels are preserved, so
# `make bench-json` after an optimization updates "current" while keeping
# the pre-PR "baseline" for comparison.
# Two steps (not a pipe) so a benchmark failure fails the target instead of
# being masked by benchjson's exit status.
bench-json:
	$(GO) test -run '^$$' -bench '$(BENCHES)' -benchmem -benchtime=$(BENCHTIME) . > $(BENCH_JSON).tmp
	$(GO) run ./cmd/benchjson -label $(BENCH_LABEL) -out $(BENCH_JSON) < $(BENCH_JSON).tmp
	@rm -f $(BENCH_JSON).tmp

# Perf gate: rerun the recorded benchmarks and fail if any shared ns/op or
# throughput ("/s") metric regressed beyond $(BENCH_TOLERANCE) of the
# committed $(BENCH_JSON) "current" run. Two steps (not a pipe) so a
# benchmark failure fails the target rather than reading as an empty run.
bench-check:
	$(GO) test -run '^$$' -bench '$(BENCHES)' -benchmem -benchtime=$(BENCHTIME) . > $(BENCH_JSON).check.tmp
	$(GO) run ./cmd/benchjson -check -baseline $(BENCH_JSON) -against current -tolerance $(BENCH_TOLERANCE) < $(BENCH_JSON).check.tmp
	@rm -f $(BENCH_JSON).check.tmp

# Boot the flexwattsd daemon (built with -race), hit every endpoint class,
# and diff the served ASCII bodies against the committed goldens.
smoke:
	bash scripts/smoke_flexwattsd.sh

# Measure what the daemon sustains: boot it (race-built), drive both
# evaluate endpoints with cmd/loadgen at a fixed rate, assert the SLO
# floor (non-zero throughput, zero 5xx / zero shed at low load), and
# record evals/s + p50/p95/p99 into $(BENCH_JSON). Tune with SLO_RPS,
# SLO_BATCH, SLO_DURATION.
slo:
	BENCH_JSON=$(BENCH_JSON) BENCH_LABEL=$(SLO_LABEL) bash scripts/slo_flexwattsd.sh

# Short-budget fuzz runs through the two real entry points — the daemon's
# evaluate request (decoded, then served through the handler) and the
# library's Client.Evaluate — plus the evaluate wire codec against its
# frozen encoding/json reference, and the grid memos against per-point
# evaluation and the frozen reference. -fuzz accepts one target at a time,
# so four sequential invocations.
FUZZTIME ?= 10s
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzEvaluateRequest$$' -fuzztime $(FUZZTIME) ./internal/server
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeEvalRequest$$' -fuzztime $(FUZZTIME) ./internal/server
	$(GO) test -run '^$$' -fuzz '^FuzzEvaluate$$' -fuzztime $(FUZZTIME) ./flexwatts
	$(GO) test -run '^$$' -fuzz '^FuzzEvaluateGrid$$' -fuzztime $(FUZZTIME) .

# The benchmark program is its own module (flexbench/go.mod), so the root
# targets never compile it; this builds, vets and tests it against the
# current tree, so an API change that breaks the benchmark fails here.
flexbench:
	cd flexbench && $(GO) vet . && $(GO) test .

lint:
	$(GO) vet ./...
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

# Deeper static analysis than vet (needs network on first run to fetch the
# pinned tool; CI runs it on every push).
staticcheck:
	$(GO) run honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION) ./...

# Known-vulnerability scan over the module graph and stdlib usage.
govulncheck:
	$(GO) run golang.org/x/vuln/cmd/govulncheck@$(GOVULNCHECK_VERSION) ./...

fmt:
	gofmt -w .

ci: build lint race bench
