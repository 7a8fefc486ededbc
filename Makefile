# Developer entry points. CI runs the same targets (see
# .github/workflows/ci.yml).

GO ?= go
BENCH_DATE := $(shell date +%Y%m%d)
BENCHTIME ?= 1s
# bench-gate failure threshold: fail when any benchmark regresses by
# more than this percentage over the committed baseline.
BENCH_OVER ?= 25
# allocs/op gate: benchmarks matching ALLOC_GATE fail bench-gate when
# their allocation count regresses by more than ALLOC_OVER percent
# (allocs are deterministic, so this stays strict even on noisy CI).
ALLOC_OVER ?= 10
ALLOC_GATE ?= EpochSolve|PlanRepair|FrontierMoveRepair|StreamIngest|WindowFreeze|MetricsObserve|ColdPlanBuild|IngestHandler|ClusterCodec|ShardMerge

.PHONY: all build vet fmt-check test test-bench smoke loc examples bench bench-smoke bench-baseline bench-compare bench-gate profile

all: vet fmt-check build test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# gofmt gate: fail when any file is not gofmt-clean.
fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# Build and run every example program and diff its stdout against the
# golden beside it (examples/<name>/expected_output.txt): API drift or a
# changed number in examples/ breaks this target (and CI) rather than
# rotting silently. The programs are deterministic; after an intended
# change, regenerate a golden with
# `go run ./examples/<name> > examples/<name>/expected_output.txt`.
examples:
	$(GO) build ./examples/...
	@for ex in quickstart inference-vs-probability disjoint-paths peer-monitoring; do \
		echo "== examples/$$ex"; \
		out=$$($(GO) run ./examples/$$ex) || exit 1; \
		printf '%s\n' "$$out" | diff -u examples/$$ex/expected_output.txt - || exit 1; \
	done

test:
	$(GO) test ./...

# bench/ (tomobench, the end-to-end benchmark) is a module of its own
# that imports this module's internal/ packages, so `go test ./...`
# above does not descend into it: vet and test it here, or an internal
# API drift breaks the benchmark silently.
test-bench:
	$(GO) -C bench vet ./...
	$(GO) -C bench test ./...

# End-to-end smoke: tomobench's Small()-scale pass drives real tomod
# daemons (all four workloads) and exits 1 on any failed operation or
# on a served estimate that disagrees with the offline reference —
# what test-bench, which only proves bench/ compiles against the
# internal API, cannot see.
smoke:
	$(GO) run -C bench ./tomobench -smoke

# The line count ROADMAP.md and CHANGES.md track from PR to PR: non-test
# Go outside bench/.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' | xargs cat | wc -l

# Full benchmark run, recorded as a dated JSON snapshot so the perf
# trajectory is tracked from PR to PR (see DESIGN.md reference table).
bench:
	$(GO) test -run '^$$' -bench . -benchmem -json . | tee BENCH_$(BENCH_DATE).json

# One-iteration smoke: every benchmark must still execute.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime=1x .

# Refresh the committed baseline snapshot that bench-compare diffs
# against. Run on a quiet box and commit the result.
bench-baseline:
	$(GO) test -run '^$$' -bench . -benchmem -json . > BENCH_baseline.json

# Diff a fresh run against the committed baseline. Informational by
# default (benchdiff always exits 0 without -fail-over); CI runs this
# with BENCHTIME=1x as a reported, non-fatal step.
bench-compare:
	$(GO) test -run '^$$' -bench . -benchmem -benchtime $(BENCHTIME) -json . > BENCH_compare.json
	$(GO) run ./cmd/benchdiff BENCH_baseline.json BENCH_compare.json

# The same comparison as a hard gate: exit non-zero when any benchmark
# regresses more than BENCH_OVER over the committed baseline, or when
# an epoch-solve benchmark (ALLOC_GATE) regresses allocs/op by more
# than ALLOC_OVER. CI runs this as a required step (BENCHTIME=0.5s,
# BENCH_OVER=50 to absorb runner noise); the defaults here are the
# strict local gate.
bench-gate:
	$(GO) test -run '^$$' -bench . -benchmem -benchtime $(BENCHTIME) -json . > BENCH_compare.json
	$(GO) run ./cmd/benchdiff -fail-over $(BENCH_OVER) -allocs-over $(ALLOC_OVER) -allocs-for '$(ALLOC_GATE)' BENCH_baseline.json BENCH_compare.json

# CPU + memory profiles of the sharded epoch solve, the streaming hot
# path: emits cpu.pprof / mem.pprof for `go tool pprof`.
profile:
	$(GO) test -run '^$$' -bench BenchmarkShardedEpochSolve -benchmem -benchtime $(BENCHTIME) -cpuprofile cpu.pprof -memprofile mem.pprof .
