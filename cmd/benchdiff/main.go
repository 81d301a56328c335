// Command benchdiff compares two benchmark runs and exits nonzero on
// regression — the CI gate behind `make bench-gate`.
//
// Usage:
//
//	benchdiff [flags] BASE HEAD
//
// BASE and HEAD are benchmark streams: either the test2json event files
// `make bench-json` writes or plain `go test -bench` text. Repeated
// measurements of one benchmark (-count=N) are denoised by taking the
// minimum before comparison.
//
// Flags:
//
//	-threshold F        tolerated fractional ns/op growth (default 0.10)
//	-alloc-threshold F  tolerated fractional allocs/op growth (default 0;
//	                    growth below one whole alloc/op never trips)
//	-normalize NAME     calibrate machine speed: divide every ns/op ratio
//	                    by NAME's ratio (a stable pure-Go benchmark
//	                    present in both streams)
//	-allow-missing      benchmarks present in BASE but absent from HEAD
//	                    only warn instead of failing (lost gate coverage
//	                    is otherwise an error so renames force a baseline
//	                    refresh in the same change)
//	-v                  list every compared benchmark, not just regressions
//
// Exit status: 0 clean, 1 regression (or lost coverage), 2 usage or parse
// error.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/benchcmp"
)

func main() {
	regressed, err := run(os.Args[1:], os.Stdout)
	switch {
	case errors.Is(err, flag.ErrHelp):
		// -h: the flag set has printed the usage
	case err != nil:
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(2)
	case regressed:
		os.Exit(1)
	}
}

// run compares the two benchmark streams named in args and reports on
// stdout. regressed is true when HEAD regressed or lost gate coverage.
func run(args []string, stdout io.Writer) (regressed bool, err error) {
	fs := flag.NewFlagSet("benchdiff", flag.ContinueOnError)
	threshold := fs.Float64("threshold", 0.10, "tolerated fractional ns/op growth")
	allocThreshold := fs.Float64("alloc-threshold", 0, "tolerated fractional allocs/op growth")
	normalize := fs.String("normalize", "", "benchmark name used to calibrate machine speed")
	allowMissing := fs.Bool("allow-missing", false, "missing benchmarks warn instead of failing")
	verbose := fs.Bool("v", false, "list every compared benchmark")
	if err := fs.Parse(args); err != nil {
		return false, err
	}
	if fs.NArg() != 2 {
		return false, errors.New("usage: benchdiff [flags] BASE HEAD")
	}

	base, err := parseFile(fs.Arg(0))
	if err != nil {
		return false, err
	}
	head, err := parseFile(fs.Arg(1))
	if err != nil {
		return false, err
	}
	rep, err := benchcmp.Compare(base, head, benchcmp.Thresholds{
		NsFrac:    *threshold,
		AllocFrac: *allocThreshold,
	}, *normalize)
	if err != nil {
		return false, err
	}

	if rep.NormalizeRef != "" {
		fmt.Fprintf(stdout, "benchdiff: normalized by %s (scale %.3f)\n", rep.NormalizeRef, rep.Scale)
	}
	if *verbose {
		for _, d := range rep.Deltas {
			fmt.Fprintf(stdout, "  %-60s %10.0f -> %10.0f ns/op (%+.1f%%)\n",
				d.Key, d.Base.NsPerOp, d.Head.NsPerOp*rep.Scale, (d.NsRatio-1)*100)
		}
	}
	for _, k := range rep.NewKeys {
		fmt.Fprintf(stdout, "benchdiff: new (not in baseline): %s\n", k)
	}

	for _, k := range rep.MissingKeys {
		if *allowMissing {
			fmt.Fprintf(stdout, "benchdiff: warning: missing from head: %s\n", k)
		} else {
			fmt.Fprintf(stdout, "benchdiff: FAIL: missing from head (lost gate coverage): %s\n", k)
			regressed = true
		}
	}
	for _, d := range rep.Regressions() {
		fmt.Fprintf(stdout, "benchdiff: FAIL: %s: %s\n", d.Key, d.Reason)
		regressed = true
	}
	fmt.Fprintf(stdout, "benchdiff: %d benchmarks compared, %d regressions, %d missing, %d new\n",
		len(rep.Deltas), len(rep.Regressions()), len(rep.MissingKeys), len(rep.NewKeys))
	return regressed, nil
}

func parseFile(path string) (map[string]benchcmp.Result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	m, err := benchcmp.Parse(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(m) == 0 {
		return nil, fmt.Errorf("%s: no benchmark results found", path)
	}
	return m, nil
}
