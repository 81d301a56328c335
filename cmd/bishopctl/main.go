// Command bishopctl drives a fleet of bishopd workers from the command
// line. Its run verb executes a saved sweep spec across remote workers
// through the internal/fleet coordinator: the point set is sharded, shards
// are leased to workers under TTL heartbeats, worker faults (dead hosts,
// dropped or truncated streams, stalled connections, full queues) are
// retried, re-leased, or absorbed by per-worker circuit breakers, and
// every record streams into one durable JSONL checkpoint. The checkpoint is
// resumable — re-running the same command after a coordinator crash picks
// up where it stopped without re-evaluating completed points — and on
// success holds the enumeration-ordered record set, byte-identical to
// `dse -spec spec.json -checkpoint out.jsonl` run on one machine.
//
// The search verb runs a saved successive-halving search spec (as written
// by dse -print-spec in search mode) the same way: every rung of the
// fidelity ladder is a fleet run of that rung's sweep, all rungs share the
// one checkpoint (records are fidelity-tagged, exactly as in
// `dse -search ... -checkpoint out.jsonl`), and promotion happens on the
// coordinator. A coordinator killed at any rung resumes from the
// checkpoint with zero re-evaluation.
//
// Usage:
//
//	bishopctl run -spec sweep.json -workers host1:8372,host2:8372 -checkpoint out.jsonl
//	bishopctl run -spec sweep.json -workers host1:8372,host2:8372 -checkpoint out.jsonl \
//	    -shards 8 -lease-ttl 1m -frontier frontier.json
//	bishopctl search -spec search.json -workers host1:8372,host2:8372 -checkpoint out.jsonl
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/dse"
	"repro/internal/durable"
	"repro/internal/fleet"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return // -h: the flag set has printed the usage
		}
		fmt.Fprintln(os.Stderr, "bishopctl:", err)
		os.Exit(1)
	}
}

// run executes the verb in args[0] and reports the merged result on stdout;
// progress lines go to stderr.
func run(args []string, stdout io.Writer) error {
	if len(args) == 0 || (args[0] != "run" && args[0] != "search") {
		return errors.New("usage: bishopctl {run|search} -spec spec.json -workers host1,host2,... -checkpoint out.jsonl")
	}
	verb := args[0]
	fs := flag.NewFlagSet("bishopctl "+verb, flag.ContinueOnError)
	specPath := fs.String("spec", "", "saved spec (JSON, as written by dse -print-spec)")
	workers := fs.String("workers", "", "comma-separated bishopd workers (host:port or http:// URLs)")
	checkpoint := fs.String("checkpoint", "", "durable merged JSONL checkpoint (resumable; shared by every search rung)")
	shards := fs.Int("shards", 0, "shard count (0 = one per worker)")
	leaseTTL := fs.Duration("lease-ttl", 30*time.Second, "silence budget per leased shard before it is re-leased")
	timeout := fs.Duration("timeout", 10*time.Second, "per-request timeout against workers")
	frontier := fs.String("frontier", "", "write the merged Pareto frontier JSON to this path")
	quiet := fs.Bool("q", false, "suppress progress lines")
	if err := fs.Parse(args[1:]); err != nil {
		return err
	}
	if *specPath == "" || *workers == "" || *checkpoint == "" {
		return fmt.Errorf("%s: -spec, -workers, and -checkpoint are required", verb)
	}
	data, err := os.ReadFile(*specPath)
	if err != nil {
		return err
	}

	var list []string
	for _, w := range strings.Split(*workers, ",") {
		if w = strings.TrimSpace(w); w != "" {
			list = append(list, w)
		}
	}
	cfg := fleet.Config{
		Workers:    list,
		Shards:     *shards,
		Checkpoint: *checkpoint,
		LeaseTTL:   *leaseTTL,
		Worker:     fleet.WorkerConfig{RequestTimeout: *timeout},
	}
	if !*quiet {
		cfg.Logf = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		}
		done := 0
		cfg.OnRecord = func(dse.Record) {
			done++
			fmt.Fprintf(os.Stderr, "\rbishopctl: %d records merged", done)
		}
	}

	// SIGINT/SIGTERM abort the coordinator; the checkpoints keep every
	// committed record, so the identical command resumes the work.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if verb == "search" {
		spec, err := dse.DecodeSearchSpec(data)
		if err != nil {
			return err
		}
		cfg.Worker.Seed = spec.Normalized().Seed
		return runSearch(ctx, stdout, spec, cfg, *frontier, *quiet)
	}

	spec, err := dse.DecodeSpec(data)
	if err != nil {
		return err
	}
	cfg.Worker.Seed = spec.Normalized().Seed

	res, err := fleet.Run(ctx, spec, cfg)
	if !*quiet {
		fmt.Fprintln(os.Stderr)
	}
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "bishopctl: %d records (%d resumed, %d fresh) across %d workers, %d re-leases\n",
		len(res.Records), res.Resumed, res.Fresh, len(list), res.ReLeases)
	for _, name := range res.WorkerNames() {
		fmt.Fprintf(stdout, "bishopctl:   %-40s %d records\n", name, res.WorkerRecords[name])
	}
	return writeFrontier(stdout, *frontier, res.Records)
}

// runSearch executes a successive-halving search across the fleet and
// reports the rung progression plus the survivor frontier.
func runSearch(ctx context.Context, stdout io.Writer, spec dse.SearchSpec, cfg fleet.Config, frontier string, quiet bool) error {
	sr, err := fleet.RunSearch(ctx, spec, cfg)
	if !quiet {
		fmt.Fprintln(os.Stderr)
	}
	if err != nil {
		return err
	}
	dse.FprintRungs(stdout, "bishopctl: ", sr.Rungs, len(spec.Normalized().Points()))
	fmt.Fprintf(stdout, "bishopctl: search total: %d fresh evaluations across %d workers\n", sr.Evaluated, len(cfg.Workers))
	if sr.Final == nil {
		return nil
	}
	return writeFrontier(stdout, frontier, sr.Final.Records)
}

// writeFrontier dumps the latency/energy Pareto frontier of recs when a
// destination path was given.
func writeFrontier(stdout io.Writer, path string, recs []dse.Record) error {
	if path == "" {
		return nil
	}
	front := dse.Frontier(recs)
	data, err := dse.EncodeFrontier(front, len(recs))
	if err != nil {
		return err
	}
	if err := durable.WriteFile(path, func(w *bufio.Writer) error {
		_, err := w.Write(data)
		return err
	}); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "bishopctl: frontier (%d points) written to %s\n", len(front), path)
	return nil
}
