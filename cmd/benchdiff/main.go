// Command benchdiff compares two interleaved benchmark runs and exits
// nonzero on regression — the CI gate behind `make bench-gate`.
//
// Usage:
//
//	benchdiff [flags] BASE HEAD
//
// BASE and HEAD are plain `go test -bench` streams holding benchcmp.Rounds
// samples of every benchmark, sample i of both measured in the same round
// of an alternating run. A benchmark regresses when at least
// benchcmp.Critical of its round ratios (head ns/op ÷ base ns/op) exceed
// 1+benchcmp.Threshold, or when its minimum allocs/op over the rounds grew
// by at least one whole allocation. Every compared benchmark is listed with
// its count of rounds above the threshold.
//
// Flags:
//
//	-allow-missing      benchmarks present in BASE but absent from HEAD
//	                    only warn instead of failing (lost gate coverage
//	                    is otherwise an error)
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
	allowMissing := fs.Bool("allow-missing", false, "missing benchmarks warn instead of failing")
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
	rep, err := benchcmp.Compare(base, head)
	if err != nil {
		return false, err
	}

	fmt.Fprintf(stdout, "benchdiff: %d paired rounds; regression = at least %d round ratios above %.2f, or +1 allocs/op\n",
		benchcmp.Rounds, benchcmp.Critical, 1+benchcmp.Threshold)
	for _, d := range rep.Deltas {
		fmt.Fprintf(stdout, "  %-64s median %.3f  %2d/%d rounds > %.2f\n",
			d.Key, d.Median, d.Above, benchcmp.Rounds, 1+benchcmp.Threshold)
	}
	for _, k := range rep.NewKeys {
		fmt.Fprintf(stdout, "benchdiff: new (not in base): %s\n", k)
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
