// Command trace generates, inspects, and validates serialized activation
// traces (internal/tracefile) — the digest-addressed trace sets that DSE
// shards share via -trace-dir, and the import path for externally produced
// traces of real trained models.
//
// Usage:
//
//	trace pack -models 1,4 -bsa false,true -seed 1 -dir traces   # fill a store
//	trace pack -models 3 -bsa true -o m3.btrc                    # one file
//	trace info traces/*.btrc                                     # header metadata
//	trace verify traces/*.btrc                                   # full CRC+digest check
//	trace sim m3.btrc                                            # feed it to accel.Simulate
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"repro/internal/accel"
	"repro/internal/bundle"
	"repro/internal/durable"
	"repro/internal/spike"
	"repro/internal/tracefile"
	"repro/internal/transformer"
	"repro/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return // -h: the flag set has printed the usage
		}
		fmt.Fprintln(os.Stderr, "trace:", err)
		os.Exit(1)
	}
}

const usage = `usage: trace <pack|info|verify|sim> [flags] [files]
  pack    generate synthetic Table 2 traces into a store (-dir) or file (-o)
  info    print trace-file metadata without decoding the payload
  verify  fully decode each file, checking CRCs, digest, and invariants
  sim     run a trace file through accel.Simulate (default options)`

// run dispatches args[0] to its subcommand, which reports on stdout.
func run(args []string, stdout io.Writer) error {
	if len(args) == 0 {
		return errors.New(usage)
	}
	switch args[0] {
	case "pack":
		return pack(args[1:], stdout)
	case "info":
		return info(args[1:], stdout)
	case "verify":
		return verify(args[1:], stdout)
	case "sim":
		return sim(args[1:], stdout)
	}
	return fmt.Errorf("unknown subcommand %q\n%s", args[0], usage)
}

// pack generates the synthetic traces for a models × BSA grid. With -dir it
// fills a digest-addressed store (the layout cmd/dse -trace-dir reads, keyed
// by workload.TraceDigest, skipping traces already present); with -o it
// publishes a single combination to one file with provenance metadata,
// atomically, so a killed pack never leaves a torn file at that path.
func pack(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("pack", flag.ContinueOnError)
	models := fs.String("models", "3", "comma-separated Table 2 model indices (1-5)")
	bsa := fs.String("bsa", "false", "comma-separated BSA axis values (false,true)")
	seed := fs.Uint64("seed", 1, "trace seed")
	shape := fs.String("shape", "", "TTB shape as BStxBSn (default 4x2)")
	dir := fs.String("dir", "", "write into this digest-addressed trace store")
	out := fs.String("o", "", "write a single trace to this file (exactly one model and BSA value)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	ms, err := csvInts(*models)
	if err != nil {
		return fmt.Errorf("-models: %w", err)
	}
	bs, err := csvBools(*bsa)
	if err != nil {
		return fmt.Errorf("-bsa: %w", err)
	}
	sh, err := parseShape(*shape)
	if err != nil {
		return fmt.Errorf("-shape: %w", err)
	}
	if (*dir == "") == (*out == "") {
		return fmt.Errorf("exactly one of -dir or -o is required")
	}
	if *out != "" && (len(ms) != 1 || len(bs) != 1) {
		return fmt.Errorf("-o writes one trace; got %d models x %d bsa values", len(ms), len(bs))
	}

	zoo := transformer.ModelZoo()
	scs := workload.Scenarios()
	for _, m := range ms {
		if m < 1 || m > len(zoo) {
			return fmt.Errorf("model %d outside Table 2 range 1-%d", m, len(zoo))
		}
		for _, b := range bs {
			cfg, sc := zoo[m-1], scs[m]
			opt := workload.TraceOptions{BSA: b, Shape: sh}
			if *dir != "" {
				st := tracefile.Store{Dir: *dir}
				key := workload.TraceDigest(cfg, sc, opt, *seed)
				if _, err := os.Stat(st.Path(key)); err == nil {
					fmt.Fprintf(stdout, "exists  %s (model %d bsa=%v seed %d)\n", st.Path(key), m, b, *seed)
					continue
				}
				tr := workload.SyntheticTrace(cfg, sc, opt, *seed)
				if err := st.Save(key, tr); err != nil {
					return err
				}
				fmt.Fprintf(stdout, "packed  %s (model %d bsa=%v seed %d, %d layers)\n",
					st.Path(key), m, b, *seed, len(tr.Layers))
				continue
			}
			tr := workload.SyntheticTrace(cfg, sc, opt, *seed)
			var dig uint64
			if err := durable.WriteFile(*out, func(bw *bufio.Writer) error {
				w := tracefile.NewWriter(bw)
				w.Meta = map[string]string{
					"source": "workload.SyntheticTrace",
					"model":  strconv.Itoa(m),
					"bsa":    strconv.FormatBool(b),
					"seed":   strconv.FormatUint(*seed, 10),
				}
				var err error
				dig, err = w.WriteTrace(tr)
				return err
			}); err != nil {
				return err
			}
			fmt.Fprintf(stdout, "packed  %s (model %d bsa=%v seed %d, %d layers, digest %016x)\n",
				*out, m, b, *seed, len(tr.Layers), dig)
		}
	}
	return nil
}

func info(paths []string, stdout io.Writer) error {
	if len(paths) == 0 {
		return fmt.Errorf("info: no files given")
	}
	for _, p := range paths {
		in, err := tracefile.FileInfo(p)
		if err != nil {
			return err
		}
		h := in.Header
		fmt.Fprintf(stdout, "%s: v%d %s (%d blocks, T=%d N=%d D=%d), %d layers, payload %d B, digest %016x\n",
			p, in.Version, h.Config.Name, h.Config.Blocks, h.Config.T, h.Config.N, h.Config.D,
			len(h.Layers), in.PayloadBytes, in.Digest)
		for _, k := range []string{"source", "model", "bsa", "seed"} {
			if v, ok := h.Meta[k]; ok {
				fmt.Fprintf(stdout, "  meta %s=%s\n", k, v)
			}
		}
	}
	return nil
}

func verify(paths []string, stdout io.Writer) error {
	if len(paths) == 0 {
		return fmt.Errorf("verify: no files given")
	}
	for _, p := range paths {
		tr, err := tracefile.ReadFile(p)
		if err != nil {
			return err
		}
		var spikes int
		for i := range tr.Layers {
			l := &tr.Layers[i]
			spikes += countSpikes(l.In, l.Q, l.K, l.V)
		}
		fmt.Fprintf(stdout, "ok      %s (%d layers, %d spikes)\n", p, len(tr.Layers), spikes)
	}
	return nil
}

func countSpikes(ts ...*spike.Tensor) int {
	var c int
	for _, t := range ts {
		if t != nil {
			c += t.Count()
		}
	}
	return c
}

// sim is the external-trace import path: any valid trace file — however it
// was produced — runs through the Bishop simulator.
func sim(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("sim", flag.ContinueOnError)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("sim: want exactly one trace file")
	}
	tr, err := tracefile.ReadFile(fs.Arg(0))
	if err != nil {
		return err
	}
	rep := accel.Simulate(tr, accel.DefaultOptions())
	fmt.Fprintf(stdout, "%s on %s: latency %.4f ms, energy %.4f mJ, EDP %.4g pJ*s\n",
		fs.Arg(0), rep.Name, rep.LatencyMS(), rep.EnergyMJ(), rep.EDP())
	order, totals := rep.GroupTotals()
	for _, g := range order {
		t := totals[g]
		fmt.Fprintf(stdout, "  %-4s %12d cycles %14.4g pJ\n", g, t.Cycles, t.EnergyPJ())
	}
	return nil
}

func csvInts(s string) ([]int, error) {
	var out []int
	for _, p := range splitCSV(s) {
		v, err := strconv.Atoi(p)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

func csvBools(s string) ([]bool, error) {
	var out []bool
	for _, p := range splitCSV(s) {
		v, err := strconv.ParseBool(p)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

func splitCSV(s string) []string {
	if strings.TrimSpace(s) == "" {
		return nil
	}
	parts := strings.Split(s, ",")
	for i := range parts {
		parts[i] = strings.TrimSpace(parts[i])
	}
	return parts
}

func parseShape(s string) (bundle.Shape, error) {
	if s == "" {
		return bundle.Shape{}, nil // zero = DefaultShape, normalized downstream
	}
	i := strings.IndexByte(s, 'x')
	if i < 0 {
		return bundle.Shape{}, fmt.Errorf("shape %q: want BStxBSn", s)
	}
	bst, err := strconv.Atoi(s[:i])
	if err != nil {
		return bundle.Shape{}, err
	}
	bsn, err := strconv.Atoi(s[i+1:])
	if err != nil {
		return bundle.Shape{}, err
	}
	if bst <= 0 || bsn <= 0 {
		return bundle.Shape{}, fmt.Errorf("shape %q: both components must be positive", s)
	}
	return bundle.Shape{BSt: bst, BSn: bsn}, nil
}
