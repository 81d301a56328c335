# Mirrors .github/workflows/ci.yml: `make ci` runs exactly the steps CI
# runs. The end-to-end contracts of the command-line tools (cmd/dse,
# cmd/trace, bishopctl, and real bishopd processes draining, restarting and
# being killed under a fleet) are ordinary Go tests in their cmd/ packages,
# so `make test` and `make race` check them.

GO ?= go

.PHONY: build test race bench bench-gate perfbench-check fmt fmt-check vet lint ci

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Full suite under the race detector.
race:
	$(GO) test -race ./...

# One iteration per benchmark: regenerates every paper artifact once. Use
# `$(GO) test -bench=. -benchmem` for real measurements.
bench:
	$(GO) test -run='^$$' -bench=. -benchtime=1x ./...

# Benchmark-regression gate (cmd/benchdiff): an interleaved A/B of the
# hot-path benchmarks — the popcount kernel, TTB tagging, spike-driven GEMM,
# Model 5 trace generation, the steady-state simulator (a statistics-memo
# hit), the simulator filling a fresh trace's memo over a search rung's
# option sets (`SimulatorColdRung` names both the one-goroutine benchmark
# and its two-goroutine `SimulatorColdRungPair`), the 12-point sweep grid —
# between the commit
# BENCH_BASE (a git ref; CI passes HEAD^1) and the working tree. The base is
# extracted with `git archive` into a temp directory outside the module, and
# each gated package's test binary is built once per side. For 20 rounds,
# package by package, both binaries take one 100ms sample of every gated
# benchmark, each from its own package directory; the base side goes first
# in odd rounds and the head side in even rounds, so host drift hits both
# sides of a round alike. benchdiff then pairs the rounds: a benchmark
# fails when at least 15 of its 20 head/base ns/op ratios exceed 1.10, or
# when its minimum allocs/op grew by a whole allocation. The streams land
# in .bench-gate/ for inspection. There is no committed baseline to refresh.
# The round count must equal benchcmp.Rounds (benchdiff rejects any other).
# 100ms samples keep the microsecond popcount kernel far above the timer's noise floor
# while the multi-ms simulator and sweep benchmarks still finish promptly.
BENCH_BASE ?= HEAD
BENCH_GATE_PKGS = spike bundle snn workload accel dse
BENCH_GATE_RUN = -test.run='^$$' -test.bench='Kernel|Retag|LinearForwardSpikes|TraceGeneration|SimulatorSteadyState|SimulatorColdRung|SweepGrid' \
	-test.count=1 -test.benchtime=100ms -test.benchmem -test.timeout=2m
bench-gate:
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
	head=$$(pwd) && mkdir -p "$$tmp/base" .bench-gate && \
	git archive -o "$$tmp/base.tar" $(BENCH_BASE) && tar -xf "$$tmp/base.tar" -C "$$tmp/base" && \
	(cd "$$tmp/base" && $(GO) test -c -o "$$tmp/bin-base/" $(addprefix ./internal/,$(BENCH_GATE_PKGS))) && \
	$(GO) test -c -o "$$tmp/bin-head/" $(addprefix ./internal/,$(BENCH_GATE_PKGS)) && \
	: > .bench-gate/base.txt && : > .bench-gate/head.txt && \
	for r in $$(seq 20); do \
		if [ $$((r % 2)) = 1 ]; then order="base head"; else order="head base"; fi; \
		for p in $(BENCH_GATE_PKGS); do for side in $$order; do \
			if [ $$side = base ]; then root="$$tmp/base"; else root="$$head"; fi; \
			(cd "$$root/internal/$$p" && "$$tmp/bin-$$side/$$p.test" $(BENCH_GATE_RUN)) \
				>> .bench-gate/$$side.txt || { echo "bench-gate: $$side $$p failed in round $$r" >&2; exit 1; }; \
		done; done; \
	done
	$(GO) run ./cmd/benchdiff .bench-gate/base.txt .bench-gate/head.txt

# The frozen end-to-end benchmark (perfbench/) is its own Go module, so
# `go test ./...` stops at its boundary: a change to a signature it calls or
# to the records it digests would go unseen. Vet and test the module, then
# run one short seeded grid-cold pass, which exits nonzero when its record
# digest no longer matches perfbench/pins.json. It runs traced (--trace 1),
# so the per-layer breakdown's calls to bundle.Tag, Stratify* and
# hw.LinearStats.Split run here instead of only compiling. Then run one
# short fleet-merge pass, which exits nonzero unless the coordinator's
# merged checkpoint is byte-identical to serve.Run's and no worker
# evaluated a point. Everything the runs build or write stays under
# .bench_build/.
perfbench-check:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...
	bash perfbench/run.sh --workload grid-cold --seed 1 --seconds 2 --trace 1
	bash perfbench/run.sh --workload fleet-merge --seed 1 --seconds 2 --trace 0

fmt:
	gofmt -w .

fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# No production path is //go:build-tagged or written in assembly, so one
# host vet covers every line. If build tags ever gate a path, add a
# `$(GO) vet -tags <tag> ./...` (or GOARCH=...) pass here too.
vet:
	$(GO) vet ./...

# The repo's own static-analysis suite (internal/lint via cmd/bishoplint):
# determinism, strict-json, durable-writes (only internal/durable writes
# files) and closed-errors checks over every non-test package (testdata/ and vendor/
# trees excluded, pinned by internal/lint tests). Exits nonzero on any
# finding; deliberate exceptions need a reasoned //lint:ignore. See the
# README "Static analysis" section.
lint:
	$(GO) run ./cmd/bishoplint ./...

ci: build fmt-check vet race bench bench-gate lint perfbench-check
