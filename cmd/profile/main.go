// Command profile prints the §2.2 workload analysis for the Table 2 model
// zoo: analytic FLOP breakdowns and the spike-driven operation counts of a
// synthetic activity trace (showing what firing sparsity saves). Per-model
// traces are synthesized and profiled concurrently; -jobs bounds the pool.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"

	"repro/internal/profiler"
	"repro/internal/sched"
	"repro/internal/transformer"
	"repro/internal/workload"
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

// run parses args and prints the workload analysis to stdout.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("profile", flag.ContinueOnError)
	seed := fs.Uint64("seed", 1, "trace seed")
	jobs := fs.Int("jobs", 0, "max parallel workers (0 = all CPUs)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *jobs > 0 {
		runtime.GOMAXPROCS(*jobs)
	}

	fmt.Fprintln(stdout, "Analytic FLOPs breakdown (dense equivalents, §2.2):")
	for _, cfg := range transformer.ModelZoo() {
		b := profiler.Profile(cfg)
		fmt.Fprintf(stdout, "  %-22s total %8.2f GFLOP  attn %5.1f%%  mlp %5.1f%%  proj %5.1f%%  attn+mlp %5.1f%%\n",
			cfg.Name, b.Total()/1e9, 100*b.Attention/b.Total(),
			100*b.MLP/b.Total(), 100*b.Projection/b.Total(), 100*b.AttnMLPShare())
	}

	fmt.Fprintln(stdout, "\nSpike-driven operation counts (synthetic activity traces):")
	scs := workload.Scenarios()
	zoo := transformer.ModelZoo()
	lines, err := sched.Collect(context.Background(), len(zoo), *jobs,
		func(i int) (string, error) {
			cfg := zoo[i]
			tr := workload.SyntheticTrace(cfg, scs[i+1], workload.TraceOptions{}, *seed)
			ops := profiler.OpsFromTrace(tr)
			dense := profiler.Profile(cfg)
			return fmt.Sprintf("  %-22s %8.2f GOp (%.1f%% of dense FLOPs)",
				cfg.Name, ops.Total()/1e9, 100*ops.Total()/dense.Total()), nil
		})
	if err != nil {
		return err
	}
	for _, l := range lines {
		fmt.Fprintln(stdout, l)
	}
	return nil
}
