# Mirrors .github/workflows/ci.yml: `make ci` runs exactly what CI runs.

GO ?= go

# Every smoke target works inside its own scratch directory under SMOKE_DIR
# and removes that scratch on success, so a green run leaves nothing behind
# but the declared artifacts (the *_OUT paths, which CI overrides to
# uploadable locations and local runs find under $(SMOKE_DIR)).
SMOKE_DIR ?= .smoke

.PHONY: build test race bench bench-json bench-gate bench-baseline perfbench-check dse-smoke backend-smoke trace-smoke serve-smoke fleet-smoke search-smoke smoke-clean fmt fmt-check vet lint ci

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

# One iteration per benchmark: regenerates every paper artifact as a smoke
# run. Use `$(GO) test -bench=. -benchmem` for real measurements.
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
bench-gate:
	@mkdir -p $(SMOKE_DIR)
	@$(GO) test -json $(BENCH_GATE_SEL) $(BENCH_GATE_PKGS) > $(SMOKE_DIR)/bench-head.json || \
		{ echo "bench-gate measurement failed; last events:" >&2; \
		  tail -40 $(SMOKE_DIR)/bench-head.json >&2; exit 1; }
	$(GO) run ./cmd/benchdiff -threshold 0.10 -normalize '$(BENCH_NORMALIZE)' \
		$(BENCH_BASELINE) $(SMOKE_DIR)/bench-head.json

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

# Tiny end-to-end DSE sweep (2 shapes x 2 ECP settings) through cmd/dse:
# exercises sweep -> checkpoint -> frontier and fails if the frontier JSON
# comes back empty. FRONTIER_OUT overrides the artifact path.
FRONTIER_OUT ?= $(SMOKE_DIR)/frontier.json
dse-smoke:
	@mkdir -p $(SMOKE_DIR)
	@$(GO) run ./cmd/dse -models 4 -shapes 4x2,2x2 -ecp 0,10 -frontier $(FRONTIER_OUT)
	@grep -q '"digest"' $(FRONTIER_OUT) || \
		{ echo "dse-smoke: empty frontier in $(FRONTIER_OUT)" >&2; exit 1; }
	@echo "wrote $(FRONTIER_OUT)"

# Trace-store smoke: pack a tiny trace set, verify it, run a 2-shard
# cmd/dse sweep against the shared -trace-dir (each shard must *hit* the
# store, not regenerate), and check the sharded records are bit-identical
# to an unsharded regenerate-per-process sweep. TRACE_DIR overrides the
# store path (it is the uploaded artifact and survives cleanup).
TRACE_DIR ?= $(SMOKE_DIR)/traces
trace-smoke:
	@set -e; \
	d=$(SMOKE_DIR)/trace; rm -rf $$d; mkdir -p $$d; \
	$(GO) run ./cmd/trace pack -models 4 -bsa false,true -seed 1 -dir $(TRACE_DIR); \
	$(GO) run ./cmd/trace verify $(TRACE_DIR)/*.btrc; \
	out=$$($(GO) run ./cmd/dse -models 4 -bsa false,true -ecp 0,10 -trace-dir $(TRACE_DIR) -shard 0/2 -checkpoint $$d/shard0.jsonl); \
		echo "$$out" | grep -q 'trace store .*: [1-9][0-9]* hits' || \
		{ echo "trace-smoke: shard 0 did not read the shared store" >&2; exit 1; }; \
	out=$$($(GO) run ./cmd/dse -models 4 -bsa false,true -ecp 0,10 -trace-dir $(TRACE_DIR) -shard 1/2 -checkpoint $$d/shard1.jsonl); \
		echo "$$out" | grep -q 'trace store .*: [1-9][0-9]* hits' || \
		{ echo "trace-smoke: shard 1 did not read the shared store" >&2; exit 1; }; \
	$(GO) run ./cmd/dse -models 4 -bsa false,true -ecp 0,10 -checkpoint $$d/full.jsonl > /dev/null; \
	sort $$d/shard0.jsonl $$d/shard1.jsonl > $$d/sharded.sorted; sort $$d/full.jsonl > $$d/unsharded.sorted; \
	cmp -s $$d/sharded.sorted $$d/unsharded.sorted || \
		{ echo "trace-smoke: shared-store shard records differ from the regenerating sweep" >&2; exit 1; }; \
	rm -rf $$d; \
	echo "trace-smoke: 2-shard shared-store sweep bit-identical to regenerating sweep ($(TRACE_DIR))"

# Cross-backend smoke: a tiny -backends bishop,ptb,gpu sweep through cmd/dse
# must collect records from every backend and emit a non-empty cross-backend
# frontier artifact. BACKEND_FRONTIER_OUT overrides the artifact path.
BACKEND_FRONTIER_OUT ?= $(SMOKE_DIR)/backend-frontier.json
backend-smoke:
	@mkdir -p $(SMOKE_DIR)
	@out=$$($(GO) run ./cmd/dse -models 4 -backends bishop,ptb,gpu -ecp 0,10 -frontier $(BACKEND_FRONTIER_OUT)); \
	echo "$$out"; \
	for b in bishop ptb gpu; do \
		echo "$$out" | grep -q "backend $$b: [1-9]" || \
			{ echo "backend-smoke: backend $$b contributed no records" >&2; exit 1; }; \
	done
	@grep -q '"digest"' $(BACKEND_FRONTIER_OUT) || \
		{ echo "backend-smoke: empty frontier in $(BACKEND_FRONTIER_OUT)" >&2; exit 1; }
	@echo "wrote $(BACKEND_FRONTIER_OUT)"

# Sweep-serving smoke: compile a spec with cmd/dse -print-spec, run it both
# through `cmd/dse -spec` and through a live bishopd daemon, and require the
# daemon's NDJSON record stream to be bit-identical to the CLI's record
# dump. Then SIGTERM the daemon (asserting a graceful drain), restart it on
# the same result cache, resubmit the identical spec, and require the rerun
# to evaluate zero points — every record served from the digest-addressed
# cache. SERVE_FRONTIER_OUT overrides the artifact path.
SERVE_FRONTIER_OUT ?= $(SMOKE_DIR)/serve-frontier.json
serve-smoke:
	@set -e; \
	d=$(SMOKE_DIR)/serve; rm -rf $$d; mkdir -p $$d; \
	$(GO) run ./cmd/dse -models 4 -backends bishop,ptb,gpu -ecp 0,10 -print-spec > $$d/spec.json; \
	$(GO) run ./cmd/dse -spec $$d/spec.json -records $$d/cli.jsonl > /dev/null; \
	$(GO) build -o $$d/bishopd.bin ./cmd/bishopd; \
	$$d/bishopd.bin -addr 127.0.0.1:0 -cache-dir $$d/cache > $$d/bishopd.log 2>&1 & \
	pid=$$!; \
	trap 'kill $$pid 2>/dev/null || true' EXIT; \
	for i in $$(seq 1 100); do grep -q 'listening on' $$d/bishopd.log && break; sleep 0.1; done; \
	addr=$$(sed -n 's,^bishopd: listening on http://\([^ ]*\).*,\1,p' $$d/bishopd.log); \
	[ -n "$$addr" ] || { echo "serve-smoke: daemon did not start:" >&2; cat $$d/bishopd.log >&2; exit 1; }; \
	id=$$(curl -sS -X POST --data-binary @$$d/spec.json "http://$$addr/v1/sweeps" | \
		sed -n 's/.*"id":"\([0-9a-f]*\)".*/\1/p'); \
	[ -n "$$id" ] || { echo "serve-smoke: submit returned no job id" >&2; exit 1; }; \
	curl -sS "http://$$addr/v1/sweeps/$$id/records" > $$d/daemon.jsonl; \
	curl -sS "http://$$addr/v1/sweeps/$$id/frontier" > $(SERVE_FRONTIER_OUT); \
	grep -q '"digest"' $(SERVE_FRONTIER_OUT) || \
		{ echo "serve-smoke: empty frontier in $(SERVE_FRONTIER_OUT)" >&2; exit 1; }; \
	sort $$d/cli.jsonl > $$d/cli.sorted; sort $$d/daemon.jsonl > $$d/daemon.sorted; \
	cmp -s $$d/cli.sorted $$d/daemon.sorted || \
		{ echo "serve-smoke: daemon record stream differs from cmd/dse -spec" >&2; exit 1; }; \
	kill -TERM $$pid; \
	for i in $$(seq 1 100); do kill -0 $$pid 2>/dev/null || break; sleep 0.1; done; \
	kill -0 $$pid 2>/dev/null && { echo "serve-smoke: daemon ignored SIGTERM" >&2; exit 1; }; \
	grep -q 'bishopd: drained' $$d/bishopd.log || \
		{ echo "serve-smoke: no graceful drain:" >&2; cat $$d/bishopd.log >&2; exit 1; }; \
	$$d/bishopd.bin -addr 127.0.0.1:0 -cache-dir $$d/cache > $$d/bishopd2.log 2>&1 & \
	pid=$$!; \
	trap 'kill $$pid 2>/dev/null || true' EXIT; \
	for i in $$(seq 1 100); do grep -q 'listening on' $$d/bishopd2.log && break; sleep 0.1; done; \
	addr=$$(sed -n 's,^bishopd: listening on http://\([^ ]*\).*,\1,p' $$d/bishopd2.log); \
	[ -n "$$addr" ] || { echo "serve-smoke: daemon did not restart:" >&2; cat $$d/bishopd2.log >&2; exit 1; }; \
	curl -sS -X POST --data-binary @$$d/spec.json "http://$$addr/v1/sweeps" > /dev/null; \
	st=""; \
	for i in $$(seq 1 100); do \
		st=$$(curl -sS "http://$$addr/v1/sweeps/$$id"); \
		echo "$$st" | grep -q '"state":"done"' && break; sleep 0.1; \
	done; \
	echo "$$st" | grep -q '"state":"done"' || \
		{ echo "serve-smoke: resubmitted sweep never finished: $$st" >&2; exit 1; }; \
	echo "$$st" | grep -q '"evaluated":0' || \
		{ echo "serve-smoke: resubmit re-evaluated cached points: $$st" >&2; exit 1; }; \
	echo "$$st" | grep -Eq '"cache_hits":[1-9]' || \
		{ echo "serve-smoke: resubmit not served from the result cache: $$st" >&2; exit 1; }; \
	kill -TERM $$pid; \
	for i in $$(seq 1 100); do kill -0 $$pid 2>/dev/null || break; sleep 0.1; done; \
	rm -rf $$d; \
	echo "serve-smoke: daemon stream bit-identical to cmd/dse -spec; resubmit served entirely from the result cache"

# Distributed-sweep smoke: 3 local bishopd workers (two behind a seeded
# fault proxy injecting drops, 500s, and mid-stream truncation), driven by
# `bishopctl run`. One worker is SIGKILLed as soon as the first record is
# durably merged — mid-sweep — so its shard must be re-leased and absorbed
# by the survivors. The merged checkpoint must come out byte-identical to an
# unsharded, single-evaluator `cmd/dse -spec -jobs 1` run of the same spec
# (more evaluators append in completion order), and the merged frontier
# artifact must be non-empty. FLEET_FRONTIER_OUT overrides the artifact
# path.
FLEET_FRONTIER_OUT ?= $(SMOKE_DIR)/fleet-frontier.json
fleet-smoke:
	@set -e; \
	d=$(SMOKE_DIR)/fleet; rm -rf $$d; mkdir -p $$d; \
	$(GO) run ./cmd/dse -models 4 -bsa false,true -shapes 4x2,2x2,1x2,4x4 -ecp 0,2,4,6,8,10 -print-spec > $$d/spec.json; \
	$(GO) run ./cmd/dse -spec $$d/spec.json -jobs 1 -checkpoint $$d/ref.jsonl > /dev/null; \
	$(GO) build -o $$d/bishopd.bin ./cmd/bishopd; \
	$(GO) build -o $$d/bishopctl.bin ./cmd/bishopctl; \
	$(GO) build -o $$d/faultproxy.bin ./cmd/faultproxy; \
	pids=""; \
	trap 'kill $$pids 2>/dev/null || true' EXIT; \
	$$d/bishopd.bin -addr 127.0.0.1:0 -cache-dir $$d/cache > $$d/w1.log 2>&1 & \
	w1=$$!; pids="$$pids $$w1"; \
	$$d/bishopd.bin -addr 127.0.0.1:0 -cache-dir $$d/cache > $$d/w2.log 2>&1 & \
	pids="$$pids $$!"; \
	$$d/bishopd.bin -addr 127.0.0.1:0 -cache-dir $$d/cache > $$d/w3.log 2>&1 & \
	pids="$$pids $$!"; \
	for i in $$(seq 1 100); do \
		grep -q 'listening on' $$d/w1.log 2>/dev/null && \
		grep -q 'listening on' $$d/w2.log 2>/dev/null && \
		grep -q 'listening on' $$d/w3.log 2>/dev/null && break; sleep 0.1; \
	done; \
	a1=$$(sed -n 's,^bishopd: listening on http://\([^ ]*\).*,\1,p' $$d/w1.log); \
	a2=$$(sed -n 's,^bishopd: listening on http://\([^ ]*\).*,\1,p' $$d/w2.log); \
	a3=$$(sed -n 's,^bishopd: listening on http://\([^ ]*\).*,\1,p' $$d/w3.log); \
	[ -n "$$a1" ] && [ -n "$$a2" ] && [ -n "$$a3" ] || \
		{ echo "fleet-smoke: workers did not start" >&2; cat $$d/w*.log >&2; exit 1; }; \
	$$d/faultproxy.bin -seed 7 -drop 0.08 -error 0.08 -truncate 0.08 -truncate-bytes 300 \
		-route 127.0.0.1:0=http://$$a2 -route 127.0.0.1:0=http://$$a3 > $$d/proxy.log 2>&1 & \
	pids="$$pids $$!"; \
	for i in $$(seq 1 100); do \
		[ "$$(grep -c ' -> ' $$d/proxy.log 2>/dev/null)" = "2" ] && break; sleep 0.1; \
	done; \
	p2=$$(sed -n 's,^faultproxy: \([^ ]*\) -> http://'$$a2'.*,\1,p' $$d/proxy.log); \
	p3=$$(sed -n 's,^faultproxy: \([^ ]*\) -> http://'$$a3'.*,\1,p' $$d/proxy.log); \
	[ -n "$$p2" ] && [ -n "$$p3" ] || \
		{ echo "fleet-smoke: fault proxy did not start" >&2; cat $$d/proxy.log >&2; exit 1; }; \
	$$d/bishopctl.bin run -spec $$d/spec.json -workers $$a1,$$p2,$$p3 \
		-checkpoint $$d/merged.jsonl -lease-ttl 5s -frontier $(FLEET_FRONTIER_OUT) \
		> $$d/ctl.log 2> $$d/ctl.err & \
	cpid=$$!; pids="$$pids $$cpid"; \
	for i in $$(seq 1 400); do [ -s $$d/merged.jsonl ] && break; sleep 0.05; done; \
	[ -s $$d/merged.jsonl ] || \
		{ echo "fleet-smoke: no record merged within 20s" >&2; cat $$d/ctl.err >&2; exit 1; }; \
	kill -9 $$w1; \
	wait $$cpid && rc=0 || rc=$$?; \
	[ "$$rc" = "0" ] || \
		{ echo "fleet-smoke: coordinator failed ($$rc)" >&2; cat $$d/ctl.err >&2; exit 1; }; \
	grep -Eq 'released|re-leasing' $$d/ctl.err || \
		{ echo "fleet-smoke: SIGKILLed worker's shard was never released" >&2; cat $$d/ctl.err >&2; exit 1; }; \
	cmp -s $$d/merged.jsonl $$d/ref.jsonl || \
		{ echo "fleet-smoke: merged checkpoint differs from unsharded cmd/dse run" >&2; exit 1; }; \
	grep -q '"digest"' $(FLEET_FRONTIER_OUT) || \
		{ echo "fleet-smoke: empty frontier in $(FLEET_FRONTIER_OUT)" >&2; exit 1; }; \
	cat $$d/ctl.log; \
	rm -rf $$d; \
	echo "fleet-smoke: merged checkpoint byte-identical to unsharded sweep after worker SIGKILL behind faults"

# Successive-halving search smoke: a 96-point space through `cmd/dse -rungs
# 8,4,1` must (1) run at most half the full grid at full fidelity, (2)
# resume from its checkpoint with zero fresh evaluations when re-run, and
# (3) produce full-fidelity survivor records byte-identical to lines of a
# plain grid sweep of the same space (compared as sorted line sets — the
# checkpoint's append order under parallel evaluation is completion order).
# SEARCH_FRONTIER_OUT overrides the survivor-frontier artifact path.
SEARCH_FRONTIER_OUT ?= $(SMOKE_DIR)/search-frontier.json
SEARCH_SPACE = -models 4 -bsa false,true -shapes 4x2,2x2,1x2,4x4 -ecp 0,2,4,6,8,10 -stratify true,false
search-smoke:
	@set -e; \
	d=$(SMOKE_DIR)/search; rm -rf $$d; mkdir -p $$d; \
	out=$$($(GO) run ./cmd/dse $(SEARCH_SPACE) -rungs 8,4,1 -eta 2 \
		-checkpoint $$d/search.jsonl -frontier $(SEARCH_FRONTIER_OUT)); \
	echo "$$out"; \
	full=$$(echo "$$out" | sed -n 's/^full-fidelity evaluations: \([0-9]*\) of .*/\1/p'); \
	grid=$$(echo "$$out" | sed -n 's/^full-fidelity evaluations: [0-9]* of \([0-9]*\) grid points.*/\1/p'); \
	[ -n "$$full" ] && [ -n "$$grid" ] || \
		{ echo "search-smoke: no full-fidelity summary line" >&2; exit 1; }; \
	[ "$$((full * 2))" -le "$$grid" ] || \
		{ echo "search-smoke: $$full full-fidelity evaluations exceed half of the $$grid-point grid" >&2; exit 1; }; \
	grep -q '"digest"' $(SEARCH_FRONTIER_OUT) || \
		{ echo "search-smoke: empty survivor frontier in $(SEARCH_FRONTIER_OUT)" >&2; exit 1; }; \
	out=$$($(GO) run ./cmd/dse $(SEARCH_SPACE) -rungs 8,4,1 -eta 2 -checkpoint $$d/search.jsonl); \
	echo "$$out" | grep -q '^search total: 0 fresh evaluations' || \
		{ echo "search-smoke: checkpoint resume re-evaluated points:" >&2; echo "$$out" >&2; exit 1; }; \
	$(GO) run ./cmd/dse $(SEARCH_SPACE) -checkpoint $$d/grid.jsonl > /dev/null; \
	grep -v '"fidelity"' $$d/search.jsonl | sort > $$d/survivors.sorted; \
	sort $$d/grid.jsonl > $$d/grid.sorted; \
	[ "$$(wc -l < $$d/survivors.sorted)" = "$$full" ] || \
		{ echo "search-smoke: checkpoint holds $$(wc -l < $$d/survivors.sorted) full-fidelity records, summary said $$full" >&2; exit 1; }; \
	[ -z "$$(comm -23 $$d/survivors.sorted $$d/grid.sorted)" ] || \
		{ echo "search-smoke: survivor records are not byte-identical to grid sweep records" >&2; exit 1; }; \
	rm -rf $$d; \
	echo "search-smoke: $$full of $$grid grid points simulated at full fidelity; survivors byte-identical to the grid sweep; resume fresh-free"

smoke-clean:
	rm -rf $(SMOKE_DIR)

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
# path is //go:build-tagged; if smoke-only tags ever appear, add a
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

ci: build fmt-check vet lint race bench bench-gate perfbench-check dse-smoke backend-smoke trace-smoke serve-smoke fleet-smoke search-smoke
