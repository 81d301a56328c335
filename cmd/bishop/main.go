// Command bishop runs the paper-reproduction experiments: one table/figure
// per invocation, or everything with -exp all. Independent experiments (and
// the sweeps inside them) fan out across a worker pool; -jobs bounds it.
//
// Usage:
//
//	bishop -exp fig12            # end-to-end latency comparison
//	bishop -exp all -quick       # every experiment, bounded training budgets
//	bishop -exp all -jobs 4      # bound the worker pool to 4
//	bishop -list                 # enumerate experiment ids
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/sched"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return // -h: the flag set has printed the usage
		}
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// run parses args and runs the experiments they name, printing each table
// to stdout.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("bishop", flag.ContinueOnError)
	exp := fs.String("exp", "", "experiment id (see -list), or 'all'")
	quick := fs.Bool("quick", false, "bound training-based experiments for fast runs")
	seed := fs.Uint64("seed", 1, "experiment seed")
	jobs := fs.Int("jobs", 0, "max parallel workers (0 = all CPUs)")
	list := fs.Bool("list", false, "list experiment ids")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *list {
		fmt.Fprintln(stdout, strings.Join(experiments.FigList(), "\n"))
		return nil
	}
	if *exp == "" {
		return errors.New("usage: bishop -exp <id>|all [-quick] [-seed N] [-jobs N]; bishop -list")
	}
	if *jobs > 0 {
		// The pool sizes itself from GOMAXPROCS; capping it here bounds
		// every nested fan-out (experiments, sweeps, per-layer simulation).
		runtime.GOMAXPROCS(*jobs)
	}
	ids := []string{*exp}
	if *exp == "all" {
		ids = experiments.FigList()
	}

	// Experiments run concurrently, but tables stream to stdout in id order
	// with per-experiment timing as soon as the head of the line completes.
	type result struct {
		tbl *experiments.Table
		dur time.Duration
		err error
	}
	results := make([]chan result, len(ids))
	for i := range results {
		results[i] = make(chan result, 1)
	}
	go func() {
		sched.Map(context.Background(), len(ids), *jobs, func(i int) error {
			start := time.Now()
			tbl, err := experiments.Run(ids[i], *quick, *seed)
			results[i] <- result{tbl: tbl, dur: time.Since(start), err: err}
			return nil // errors travel via the channel so the pool drains fully
		})
	}()
	for i, id := range ids {
		r := <-results[i]
		if r.err != nil {
			return r.err
		}
		r.tbl.Fprint(stdout)
		fmt.Fprintf(stdout, "  (%s in %.1fs)\n\n", id, r.dur.Seconds())
	}
	return nil
}
