# Tier-1 verification for the SPIFFI simulator. `make verify` is what CI
# (and pre-commit discipline) runs: build, a gofmt check, vet, the full
# test suite, and a race-detector pass in short mode. The simulation-heavy
# experiment tests skip themselves under -short, but the parallel-runner coverage
# (core search parity and the fig09 worker-determinism check) does not,
# so the race pass always exercises multi-worker execution.

GO ?= go

.PHONY: all build fmt-check vet test race determinism verify bench bench-workers digests trace-guard trace-demo staticcheck govulncheck chaos chaos-soak doc-check fuzz-workload fuzz-seed

all: verify

build:
	$(GO) build ./...

# gofmt reports files whose formatting differs; any output fails.
fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

test:
	$(GO) test -timeout 30m ./...

race:
	$(GO) test -race -short ./...

# The full worker-determinism suite: every registered experiment must
# produce byte-identical results with Workers=1 and Workers=8.
determinism:
	$(GO) test -run Determinism -timeout 30m -v ./...

# Observability guards (OBSERVABILITY.md): disabled tracing must perturb
# nothing and stay under 2% overhead, and the trace package's exporters
# must hold their formats. Both run in short mode, so `verify` exercises
# them twice (here and in the race pass); the explicit target keeps the
# contract visible and quick to iterate on.
trace-guard:
	$(GO) test -short -run TracingNeutralityAndOverhead .
	$(GO) test -short ./internal/trace/

# Optional linters: run when installed, skip (without failing) when the
# environment does not have them — this repo vendors nothing and `make
# verify` must work with only the Go toolchain present.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping"; \
	fi

govulncheck:
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "govulncheck not installed; skipping"; \
	fi

# Chaos soak (FAULTS.md): seeded randomized fault schedules — node
# crashes, disk fail-stops and slowdowns, network loss — under the race
# detector with run-end invariant checks (admission slot conservation,
# impacted = recovered + lost, protected streams never shed-glitched,
# same-seed metric equality). The -short budget runs one seed so
# `verify` stays quick; drop it (CHAOS_SOAK_FLAGS=) to soak every seed.
CHAOS_SOAK_FLAGS ?= -short
chaos-soak:
	$(GO) test -race $(CHAOS_SOAK_FLAGS) -run ChaosSoak -timeout 10m ./internal/core/

# Documentation drift: broken intra-repo markdown links and CLI flags
# missing from README.md (cmd/spiffi-doccheck).
doc-check:
	$(GO) run ./cmd/spiffi-doccheck

# Workload-schedule fuzzing (WORKLOADS.md). fuzz-seed replays the
# checked-in corpus plus the f.Add seeds as plain unit tests — cheap and
# deterministic, so it rides `verify`. fuzz-workload explores new inputs
# for a bounded burst; run it when touching the spec parser or compiler.
fuzz-seed:
	$(GO) test -run FuzzWorkloadSchedule ./internal/workload/

fuzz-workload:
	$(GO) test -fuzz FuzzWorkloadSchedule -fuzztime 30s ./internal/workload/

verify: build fmt-check vet staticcheck govulncheck test race trace-guard chaos-soak fuzz-seed doc-check

# Seeded chaos suite under the race detector: fault injection, overload
# control, admission, retry and rebuild tests (FAULTS.md, OVERLOAD.md).
# Deterministic seeds make every failure reproducible.
chaos:
	$(GO) test -race -run 'Fault|FailStop|Retry|Nack|Admission|Estimator|Rebuild|Overload|Shed|Degraded|Crash|Patience' \
		./internal/core/ ./internal/terminal/ ./internal/admission/ ./internal/overload/ ./internal/faults/ ./internal/server/ ./internal/disk/

# End-to-end observability demo: run a traced Figure-10-style workload,
# write JSONL + Chrome trace files, and validate the Chrome JSON parses
# (the example program fails if it does not).
trace-demo:
	$(GO) run ./examples/tracing

bench:
	$(GO) test -bench . -benchtime 1x -run '^$$' ./...

# 1-worker vs GOMAXPROCS-worker quick-fidelity sweep (see bench_test.go).
bench-workers:
	$(GO) test -bench QuickWorkers -benchtime 1x -timeout 60m -run '^$$' .

# Byte-identity check for changes that must not move any metric: the
# benchmark's per-run digest (a hash of every Metrics field) for each
# workload at seeds 1-3, to compare with perfbench/BASELINE.json's
# digests. About 40 s on a 2-vCPU host; not part of verify.
digests:
	@for w in steady-base memory-search premiere-storm; do \
		for s in 1 2 3; do \
			bash perfbench/run.sh --workload $$w --seed $$s --seconds 1 --trace 0 | grep '^digest' || exit 1; \
		done; \
	done
