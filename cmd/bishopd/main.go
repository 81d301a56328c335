// Command bishopd is the sweep-serving daemon: a long-running HTTP/JSON
// service wrapping the DSE engine and the backend table behind the
// internal/serve API. Clients submit dse.SweepSpec documents — the same
// spec type cmd/dse runs from flags or -spec files, executed by the same
// runner — and get back digest-keyed jobs whose records stream as NDJSON in
// the checkpoint line format.
//
//	POST /v1/sweeps               submit a spec (strict JSON) → job id; 429 + backlog-derived Retry-After when the queue is full
//	POST /v1/searches             submit a dse.SearchSpec (successive-halving search) under the same admission rules
//	GET  /v1/sweeps/{id}          job status (sweep or search; /v1/searches/{id} and its subroutes are aliases)
//	GET  /v1/sweeps/{id}/records  live NDJSON record stream; ?from=N resumes at offset N; last client leaving cancels the sweep
//	GET  /v1/sweeps/{id}/frontier live latency/energy Pareto frontier
//	GET  /v1/backends             the backends with option schemas
//	POST /v1/evaluate             evaluate one point on a named backend
//	GET  /healthz                 liveness; 503 "draining" once drain begins
//
// Production posture: a bounded job queue with admission control, per-job
// contexts threaded into sweep cancellation, graceful drain on SIGTERM /
// SIGINT (accepted jobs finish inside -drain, then are canceled — every
// completed record is already durable), and a digest-addressed result cache
// (-cache-dir) that survives restarts, so re-submitted specs and repeated
// evaluations are O(1) disk lookups instead of simulations.
//
// Usage:
//
//	bishopd -addr 127.0.0.1:8372 -cache-dir bishopd-cache -trace-dir traces
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/serve"
	"repro/internal/workload"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8372", "listen address (host:port; port 0 picks a free port)")
	queue := flag.Int("queue", 16, "max sweep jobs admitted but not yet running (beyond it: 429)")
	workers := flag.Int("workers", 1, "sweeps run concurrently (one sweep already saturates the evaluator pool)")
	jobs := flag.Int("jobs", 0, "parallel evaluators per sweep for specs that leave theirs unset (0 = all CPUs)")
	cacheDir := flag.String("cache-dir", "bishopd-cache", "digest-addressed result-cache directory; empty disables the cache")
	traceDir := flag.String("trace-dir", "", "shared trace-store directory (default for specs without one)")
	drain := flag.Duration("drain", 30*time.Second, "graceful-drain budget on SIGTERM before running sweeps are canceled")
	flag.Parse()

	if *traceDir != "" {
		workload.SetTraceDir(*traceDir)
	}
	cfg := serve.ManagerConfig{QueueDepth: *queue, Workers: *workers, Jobs: *jobs}
	if *cacheDir != "" {
		cfg.Cache = &serve.Cache{Dir: *cacheDir}
	}
	mgr := serve.NewManager(cfg)

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bishopd:", err)
		os.Exit(1)
	}
	srv := &http.Server{Handler: serve.NewServer(mgr).Handler()}
	fmt.Printf("bishopd: listening on http://%s (queue %d, workers %d, cache %q)\n",
		ln.Addr(), *queue, *workers, *cacheDir)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()

	select {
	case err := <-errc:
		fmt.Fprintln(os.Stderr, "bishopd:", err)
		os.Exit(1)
	case <-ctx.Done():
	}

	fmt.Printf("bishopd: draining (up to %s)\n", *drain)
	// Drain order matters: close the job manager first — from that moment
	// submissions answer 503 and /healthz answers 503 "draining", while
	// running sweeps finish inside the budget, which ends their record
	// streams — and only then shut the HTTP server down: Shutdown waits for
	// active connections, and the streams cannot end until their jobs do.
	shutCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := mgr.Close(shutCtx); err != nil {
		fmt.Fprintln(os.Stderr, "bishopd: drain:", err)
	}
	if err := srv.Shutdown(shutCtx); err != nil {
		fmt.Fprintln(os.Stderr, "bishopd: shutdown:", err)
	}
	fmt.Println("bishopd: drained")
}
