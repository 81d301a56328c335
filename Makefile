# Mirrors .github/workflows/ci.yml: `make ci` runs exactly the steps CI
# runs. The end-to-end contracts of the command-line tools (cmd/dse,
# cmd/trace, bishopctl, and real bishopd processes draining, restarting and
# being killed under a fleet) are ordinary Go tests in their cmd/ packages,
# so `make test` and `make race` check them.

GO ?= go

.PHONY: build test race bench bench-json bench-gate bench-baseline perfbench-check fmt fmt-check vet lint ci

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Full suite twice under the race detector: once with the default SIMD
# kernel dispatch and once with BISHOP_NOSIMD=1 forcing the portable Go
# kernels, so both halves of every dispatched code path stay race-free and
# bit-identical in CI.
race:
	$(GO) test -race ./...
	BISHOP_NOSIMD=1 $(GO) test -race ./...

# One iteration per benchmark: regenerates every paper artifact once. Use
# `$(GO) test -bench=. -benchmem` for real measurements.
bench:
	$(GO) test -run='^$$' -bench=. -benchtime=1x ./...

# Machine-readable benchmark output (test2json event stream, one JSON object
# per line) for trajectory tracking: compare BENCH_*.json files across
# commits with any JSON tooling. BENCH_OUT overrides the output path.
BENCH_OUT ?= BENCH_$(shell git rev-parse --short HEAD 2>/dev/null || echo local).json
# The stream is written to a temp file and renamed into place only on
# success, so a failed or interrupted run never leaves a torn $(BENCH_OUT)
# behind for trajectory tooling to trip over. On failure the tail of the
# stream (which contains the FAIL events and panic traces) is echoed so the
# cause is visible in the CI log.
bench-json:
	@$(GO) test -json -run='^$$' -bench=. -benchtime=1x ./... > $(BENCH_OUT).tmp || \
		{ echo "bench-json failed; last events:" >&2; tail -60 $(BENCH_OUT).tmp >&2; \
		  rm -f $(BENCH_OUT).tmp; exit 1; }
	@mv $(BENCH_OUT).tmp $(BENCH_OUT)
	@echo "wrote $(BENCH_OUT)"

# Benchmark-regression gate (cmd/benchdiff): re-measure the hot-path
# benchmarks — SIMD kernel dispatch, TTB tagging, spike-driven GEMM, steady-state
# simulator, the 12-point sweep grid — with -count=$(BENCH_GATE_COUNT) and compare against the
# committed baseline, failing on >10% ns/op growth or any allocs/op growth.
# benchdiff takes the minimum across the repeated counts (noise floor) and
# -normalize divides out machine-speed differences through the pure-Go
# kernel reference, so the gate tracks code, not hosts. Refresh the
# baseline with `make bench-baseline` whenever a change intentionally
# shifts these numbers (or adds/renames a gated benchmark) and commit the
# result alongside the change.
BENCH_BASELINE ?= bench/baseline.json
BENCH_GATE_PKGS = ./internal/spike ./internal/bundle ./internal/snn ./internal/accel ./internal/dse
# min-of-5: the AVX-512 kernels speed up over the first few runs as the
# core's vector-frequency license warms, so too few counts under-reports
# the steady-state floor and flags phantom regressions.
BENCH_GATE_COUNT ?= 5
# Time-based samples: 100ms of iterations per measurement keeps the
# fast (~250ns) kernels far above the timer noise floor that fixed small
# iteration counts would sit in, while the multi-ms simulator and sweep
# benchmarks still finish promptly.
BENCH_GATE_SEL = -run='^$$' -bench='Kernel|Dispatched|Retag|LinearForwardSpikes|SimulatorSteadyState|SweepGrid' \
	-benchtime=100ms -count=$(BENCH_GATE_COUNT) -benchmem
# The reference tolerates go test's -GOMAXPROCS name suffix, so the bare
# name works on any host.
BENCH_NORMALIZE ?= BenchmarkKernelCount/go
# The measurement lands in BENCH_HEAD for inspection with `benchdiff -v`.
BENCH_HEAD ?= .bench-gate/head.json
bench-gate:
	@mkdir -p $(dir $(BENCH_HEAD))
	@$(GO) test -json $(BENCH_GATE_SEL) $(BENCH_GATE_PKGS) > $(BENCH_HEAD) || \
		{ echo "bench-gate measurement failed; last events:" >&2; \
		  tail -40 $(BENCH_HEAD) >&2; exit 1; }
	$(GO) run ./cmd/benchdiff -threshold 0.10 -normalize '$(BENCH_NORMALIZE)' \
		$(BENCH_BASELINE) $(BENCH_HEAD)

bench-baseline:
	@mkdir -p $(dir $(BENCH_BASELINE))
	@$(GO) test -json $(BENCH_GATE_SEL) $(BENCH_GATE_PKGS) > $(BENCH_BASELINE).tmp || \
		{ echo "bench-baseline measurement failed" >&2; rm -f $(BENCH_BASELINE).tmp; exit 1; }
	@mv $(BENCH_BASELINE).tmp $(BENCH_BASELINE)
	@echo "wrote $(BENCH_BASELINE)"

# The frozen end-to-end benchmark (perfbench/) is its own Go module, so
# `go test ./...` stops at its boundary: a change to a signature it calls or
# to the records it digests would go unseen. Vet and test the module, then
# run one short seeded grid-cold pass, which exits nonzero when its record
# digest no longer matches perfbench/pins.json. Everything the run builds or
# writes stays under .bench_build/.
perfbench-check:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...
	bash perfbench/run.sh --workload grid-cold --seed 1 --seconds 2 --trace 0

fmt:
	gofmt -w .

fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# The SIMD kernel dispatch layer (internal/cpuid, internal/spike's
# kernels_*.go/.s) is the one build-gated production path: its stubs and
# assembly only compile on their GOARCH. The second pass cross-vets the
# arm64 variant from any host (asmdecl checks the NEON stubs' frame
# offsets), so linux/amd64 CI still vets every line. No other production
# path is //go:build-tagged; if build tags ever gate another path, add a
# `$(GO) vet -tags <tag> ./...` pass here too.
vet:
	$(GO) vet ./...
	GOARCH=arm64 $(GO) vet ./...

# The repo's own static-analysis suite (internal/lint via cmd/bishoplint):
# determinism, strict-json, atomic-publish, fsync-before-rename, and
# closed-errors checks over every non-test package (testdata/ and vendor/
# trees excluded, pinned by internal/lint tests). Exits nonzero on any
# finding; deliberate exceptions need a reasoned //lint:ignore. See the
# README "Static analysis" section.
lint:
	$(GO) run ./cmd/bishoplint ./...

ci: build fmt-check vet race bench-gate bench-json lint perfbench-check
