// bishoplint runs the repo's custom static-analysis suite (internal/lint)
// over the module and exits nonzero on findings. It mechanically enforces
// the contracts the durable infrastructure depends on: deterministic
// digest inputs, strict unknown-field-rejecting JSON codecs, file writes
// confined to internal/durable (whose renames follow a Sync), and checked
// Close/Sync/Flush errors on durable writers.
//
// Usage:
//
//	bishoplint [-json] [-list] [./...]
//
// The suite always analyzes the whole module enclosing the working
// directory (testdata and vendor trees excluded); the optional "./..."
// argument is accepted for symmetry with the go tool. -json emits the
// findings as a JSON array with a stable field order (file, line, col,
// check, message) for CI annotations and tooling. -list prints the checks
// and exits.
//
// Exit status: 0 clean, 1 findings, 2 load or type-check failure.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/lint"
)

func main() {
	findings, err := run(os.Args[1:], os.Stdout)
	switch {
	case errors.Is(err, flag.ErrHelp):
		// -h: the flag set has printed the usage
	case err != nil:
		fmt.Fprintln(os.Stderr, "bishoplint:", err)
		os.Exit(2)
	case findings:
		os.Exit(1)
	}
}

// run lints the module enclosing the working directory and prints the
// findings to stdout; findings reports whether there were any.
func run(args []string, stdout io.Writer) (findings bool, err error) {
	fs := flag.NewFlagSet("bishoplint", flag.ContinueOnError)
	jsonOut := fs.Bool("json", false, "emit findings as a JSON array with stable field order")
	list := fs.Bool("list", false, "list the checks in the suite and exit")
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "usage: bishoplint [-json] [-list] [./...]\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return false, err
	}

	if *list {
		for _, a := range lint.Analyzers() {
			fmt.Fprintf(stdout, "%-20s %s\n", a.Name, a.Doc)
		}
		return false, nil
	}
	for _, arg := range fs.Args() {
		if arg != "./..." {
			return false, fmt.Errorf("unsupported pattern %q (the suite always lints the whole module; use ./...)", arg)
		}
	}

	mod, err := lint.Load(".")
	if err != nil {
		return false, err
	}
	diags := mod.Lint()
	if len(mod.TypeErrors) > 0 {
		// A module that does not type-check cannot be trusted to lint
		// clean: surface the errors and fail hard.
		return false, fmt.Errorf("typecheck: %w", errors.Join(mod.TypeErrors...))
	}

	if *jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if diags == nil {
			diags = []lint.Diagnostic{}
		}
		if err := enc.Encode(diags); err != nil {
			return false, err
		}
	} else {
		for _, d := range diags {
			fmt.Fprintln(stdout, d)
		}
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "bishoplint: %d finding(s) in %d package(s)\n", len(diags), len(mod.Packages))
		return true, nil
	}
	return false, nil
}
