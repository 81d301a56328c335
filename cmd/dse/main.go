// Command dse sweeps the accelerator design space: it enumerates a
// declarative grid (or seeded-random sample) over accel.Options × Table 2
// workloads × accelerator backends (-backends bishop,ptb,gpu), evaluates
// every point on the parallel simulation engine, and reports the
// latency/energy Pareto frontier — cross-backend when several backends are
// swept — as an ASCII table and JSON artifact.
//
// The flags compile into a dse.SweepSpec — the same document cmd/bishopd
// accepts over HTTP — and both front ends execute it through serve.Run, so
// a spec produces identical records whether run here or submitted to the
// daemon. -print-spec emits the compiled spec instead of running it;
// -spec file.json runs a saved spec wholesale.
//
// Sweeps are resumable and shardable: with -checkpoint every evaluated
// point is durably appended in enumeration order (the same bytes at any
// -jobs), so an interrupted run picks up where it stopped; with -shard i/n the point set is partitioned
// deterministically across n machines and the shard checkpoints merge into
// the unsharded result. With -trace-dir the shards read one digest-addressed
// trace set (generated once, e.g. by `trace pack`, or persisted on first
// miss) instead of regenerating identical traces per process. With
// -result-cache the sweep consults (and feeds) a digest-addressed record
// cache, the same store bishopd uses, so repeated specs cost disk reads.
//
// Usage:
//
//	dse -models 1,3 -splits 0.1,0.25,0.5,0.75,0.9            # θ_s balancing sweep
//	dse -models 3 -shapes 1x2,2x2,4x2,4x4 -ecp 0,6           # TTB volume × ECP grid
//	dse -models 1,2,3,4,5 -bsa false,true -checkpoint dse.jsonl -shard 0/4
//	dse -random 64 -seed 7 -frontier frontier.json           # random search
//	dse -models 3 -backends bishop,ptb,gpu -ecp 0,6          # cross-backend frontier
//	dse -models 3 -ecp 0,6 -print-spec > sweep.json          # compile, don't run
//	dse -spec sweep.json -records records.jsonl              # run a saved spec
//
// Successive-halving search (-rungs, or -search file.json) triages a large
// space with cheap low-fidelity proxy evaluations before spending full
// simulations on the survivors: -rungs 8,4,1 evaluates every candidate on a
// 1/8-volume trace, promotes the best 1/eta by -objective (ties broken by
// point digest, so the search is deterministic), re-ranks them at 1/4, and
// runs only the final survivors at full fidelity. Records carry a fidelity
// tag, so a search sharing -checkpoint/-result-cache with plain sweeps stays
// exact, and an interrupted search resumes with zero re-evaluation.
//
//	dse -models 4 -bsa false,true -ecp 0,2,4,6 -rungs 8,4,1 -eta 2
//	dse -models 4 -ecp 0,6 -rungs 8,1 -print-spec > search.json
//	dse -search search.json -checkpoint search.jsonl -frontier front.json
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"maps"
	"os"
	"slices"
	"strconv"
	"strings"

	"repro/internal/bundle"
	"repro/internal/dse"
	"repro/internal/durable"
	"repro/internal/serve"
	"repro/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return // -h: the flag set has printed the usage
		}
		fmt.Fprintln(os.Stderr, "dse:", strings.TrimPrefix(err.Error(), "dse: "))
		os.Exit(1)
	}
}

// definitionFlags define what a sweep is. A saved -spec or -search document
// is the whole definition, so none of them may be set alongside one.
var definitionFlags = []string{"models", "bsa", "backends", "shapes", "thetas", "splits", "stratify", "ecp", "random", "seed"}

// run parses args, then compiles, prints or executes the sweep or search
// they describe, writing its report to stdout.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("dse", flag.ContinueOnError)
	models := fs.String("models", "3", "comma-separated Table 2 model indices (1-5)")
	bsa := fs.String("bsa", "false", "comma-separated BSA axis values (false,true)")
	backends := fs.String("backends", "bishop", "comma-separated accelerator backends (bishop,ptb,gpu)")
	shapes := fs.String("shapes", "", "comma-separated TTB shapes as BStxBSn, e.g. 4x2,2x2 (default 4x2)")
	thetas := fs.String("thetas", "", "comma-separated stratification thresholds; -1 = split balancing (default -1)")
	splits := fs.String("splits", "", "comma-separated dense-fraction targets for balancing (default 0.5)")
	stratify := fs.String("stratify", "", "comma-separated stratify axis values (default true)")
	ecp := fs.String("ecp", "", "comma-separated ECP thetas; 0 = off (default 0)")
	random := fs.Int("random", 0, "sample N random points from the space instead of the full grid")
	seed := fs.Uint64("seed", 1, "trace seed (and random-search seed)")
	checkpoint := fs.String("checkpoint", "", "JSONL checkpoint path; enables resume")
	traceDir := fs.String("trace-dir", "", "shared trace-store directory: load traces by digest, generate+persist on miss (lets shards share one trace set)")
	shard := fs.String("shard", "", "shard spec i/n: evaluate point i mod n == i only")
	jobs := fs.Int("jobs", 0, "parallel evaluators (0 = all CPUs)")
	frontier := fs.String("frontier", "", "write the Pareto frontier JSON to this path")
	specPath := fs.String("spec", "", "run this saved sweep spec instead of compiling one from flags")
	printSpec := fs.Bool("print-spec", false, "print the compiled sweep spec as JSON and exit without evaluating")
	records := fs.String("records", "", "write the merged record set as JSONL to this path")
	resultCache := fs.String("result-cache", "", "digest-addressed result-cache directory (shared with bishopd)")
	rungs := fs.String("rungs", "", "successive-halving fidelity ladder as trace-scale divisors, e.g. 8,4,1 (enables search mode)")
	eta := fs.Int("eta", 0, "halving ratio: keep ~1/eta of each rung's candidates (default 2; search mode)")
	objective := fs.String("objective", "", "promotion objective: latency, energy, edp, or pareto (default edp; search mode)")
	minSurvivors := fs.Int("min-survivors", 0, "promotion floor per rung (default 1; search mode)")
	searchPath := fs.String("search", "", "run this saved search spec (successive-halving) instead of compiling one from flags")
	if err := fs.Parse(args); err != nil {
		return err
	}
	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })

	// loadSaved reads the saved -doc document at path through decode. The
	// document is the whole definition, so a definition flag (or any of
	// extra) set alongside it is an error. The execution attachments still
	// apply: each of -checkpoint, -trace-dir and -jobs given on the command
	// line replaces the decoded value.
	loadSaved := func(doc, path string, decode func([]byte) error, ckpt, dir *string, j *int, extra ...string) error {
		for _, name := range append(slices.Clone(definitionFlags), extra...) {
			if set[name] {
				return fmt.Errorf("-%s conflicts with -%s; edit the spec file instead", name, doc)
			}
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		if err := decode(data); err != nil {
			return err
		}
		if set["checkpoint"] {
			*ckpt = *checkpoint
		}
		if set["trace-dir"] {
			*dir = *traceDir
		}
		if set["jobs"] {
			*j = *jobs
		}
		return nil
	}

	if *searchPath != "" || *rungs != "" {
		if set["spec"] {
			return fmt.Errorf("-spec conflicts with search mode; use -search for a saved search document")
		}
		if set["shard"] {
			return fmt.Errorf("-shard does not apply to search mode (use bishopctl search for distributed runs)")
		}
		var spec dse.SearchSpec
		if *searchPath != "" {
			err := loadSaved("search", *searchPath, func(data []byte) (err error) {
				spec, err = dse.DecodeSearchSpec(data)
				return err
			}, &spec.Checkpoint, &spec.TraceDir, &spec.Jobs, "rungs", "eta", "objective", "min-survivors")
			if err != nil {
				return err
			}
		} else {
			space, err := parseSpace(*models, *bsa, *shapes, *thetas, *splits, *stratify, *ecp)
			if err != nil {
				return err
			}
			space.Backends = split(*backends)
			ladder, err := csvInts(*rungs)
			if err != nil {
				return fmt.Errorf("-rungs: %w", err)
			}
			spec = dse.SearchSpec{
				Space: space, Random: *random, Seed: *seed,
				Rungs: ladder, Eta: *eta, Objective: *objective, MinSurvivors: *minSurvivors,
				Checkpoint: *checkpoint, TraceDir: *traceDir, Jobs: *jobs,
			}
		}
		return runSearch(stdout, spec, *printSpec, *frontier, *records, *resultCache)
	}
	for _, name := range []string{"eta", "objective", "min-survivors"} {
		if set[name] {
			return fmt.Errorf("-%s only applies to search mode (-rungs or -search)", name)
		}
	}

	var spec dse.SweepSpec
	if *specPath != "" {
		err := loadSaved("spec", *specPath, func(data []byte) (err error) {
			spec, err = dse.DecodeSpec(data)
			return err
		}, &spec.Checkpoint, &spec.TraceDir, &spec.Jobs, "shard")
		if err != nil {
			return err
		}
	} else {
		space, err := parseSpace(*models, *bsa, *shapes, *thetas, *splits, *stratify, *ecp)
		if err != nil {
			return err
		}
		space.Backends = split(*backends)
		spec = dse.SweepSpec{
			Space:      space,
			Random:     *random,
			Seed:       *seed,
			Checkpoint: *checkpoint,
			TraceDir:   *traceDir,
			Jobs:       *jobs,
		}
		if *shard != "" {
			if spec.Shard, spec.Shards, err = parseShard(*shard); err != nil {
				return err
			}
		}
	}
	if err := spec.Validate(); err != nil {
		return err
	}
	if *printSpec {
		data, err := dse.EncodeSpec(spec)
		if err != nil {
			return err
		}
		_, err = stdout.Write(data)
		return err
	}

	var opt serve.RunOptions
	if *resultCache != "" {
		opt.Cache = &serve.Cache{Dir: *resultCache}
	}
	res, err := serve.Run(context.Background(), spec, opt)
	if err != nil {
		return err
	}
	rs := res.Set
	norm := spec.Normalized()
	fmt.Fprintf(stdout, "evaluated %d points (%d reused from checkpoint or duplicates); %d/%d records (shard %d/%d, seed %d)\n",
		rs.Evaluated, len(rs.Records)-rs.Evaluated, len(rs.Records), len(rs.Points),
		norm.Shard, norm.Shards, norm.Seed)
	byBackend := dse.ByBackend(rs.Records)
	for _, name := range slices.Sorted(maps.Keys(byBackend)) {
		fmt.Fprintf(stdout, "backend %s: %d records\n", name, len(byBackend[name]))
	}
	printCacheStats(stdout, norm.TraceDir, *resultCache, res)

	front := dse.Frontier(rs.Records)
	fmt.Fprintln(stdout, "latency/energy Pareto frontier:")
	dse.FprintFrontier(stdout, front)
	if err := writeOutputs(stdout, front, rs.Records, *frontier, *records, "records"); err != nil {
		return err
	}
	if !rs.Complete() {
		fmt.Fprintf(stdout, "\n%d points remain (other shards, or resume with the same -checkpoint)\n",
			len(rs.Points)-len(rs.Records))
	}
	return nil
}

// runSearch executes (or, with printSpec, just compiles) a
// successive-halving search and reports the rung progression, the survivor
// frontier, and the full-fidelity cost against the equivalent grid sweep.
func runSearch(stdout io.Writer, spec dse.SearchSpec, printSpec bool, frontier, records, resultCache string) error {
	if err := spec.Validate(); err != nil {
		return err
	}
	if printSpec {
		data, err := dse.EncodeSearchSpec(spec)
		if err != nil {
			return err
		}
		_, err = stdout.Write(data)
		return err
	}
	var opt serve.RunOptions
	if resultCache != "" {
		opt.Cache = &serve.Cache{Dir: resultCache}
	}
	res, err := serve.RunSearch(context.Background(), spec, opt)
	if err != nil {
		return err
	}
	norm := spec.Normalized()
	fmt.Fprintf(stdout, "search: objective %s, eta %d, rungs %v (seed %d)\n",
		norm.Objective, norm.Eta, norm.Rungs, norm.Seed)
	dse.FprintRungs(stdout, "", res.Search.Rungs, len(norm.Points()))
	fmt.Fprintf(stdout, "search total: %d fresh evaluations this run\n", res.Search.Evaluated)
	printCacheStats(stdout, norm.TraceDir, resultCache, res)

	front := dse.Frontier(res.Set.Records)
	fmt.Fprintln(stdout, "survivor latency/energy Pareto frontier:")
	dse.FprintFrontier(stdout, front)
	return writeOutputs(stdout, front, res.Set.Records, frontier, records, "survivor records")
}

// printCacheStats reports the trace store's and the result cache's hits
// and misses for whichever of the two the run used, then a blank line.
func printCacheStats(stdout io.Writer, traceDir, resultCache string, res *serve.RunResult) {
	if traceDir != "" {
		h, m, e := workload.TraceStoreStats()
		fmt.Fprintf(stdout, "trace store %s: %d hits, %d misses, %d errors\n", traceDir, h, m, e)
	}
	if resultCache != "" {
		fmt.Fprintf(stdout, "result cache %s: %d hits, %d misses\n", resultCache, res.CacheHits, res.CacheMisses)
	}
	fmt.Fprintln(stdout)
}

// writeOutputs writes the frontier JSON and the record dump to the paths
// given (either may be empty), noting each file written on stdout.
func writeOutputs(stdout io.Writer, front, recs []dse.Record, frontier, records, noun string) error {
	if frontier != "" {
		data, err := dse.EncodeFrontier(front, len(recs))
		if err != nil {
			return err
		}
		if err := durable.WriteFile(frontier, func(w *bufio.Writer) error {
			_, err := w.Write(data)
			return err
		}); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "\nwrote %s (%d frontier points)\n", frontier, len(front))
	}
	if records != "" {
		if err := durable.WriteFile(records, func(w *bufio.Writer) error {
			return dse.WriteRecords(w, recs)
		}); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "\nwrote %s (%d %s)\n", records, len(recs), noun)
	}
	return nil
}

func parseSpace(models, bsa, shapes, thetas, splits, stratify, ecp string) (dse.Space, error) {
	var s dse.Space
	var err error
	if s.Models, err = csvInts(models); err != nil {
		return s, fmt.Errorf("-models: %w", err)
	}
	if s.BSA, err = csvBools(bsa); err != nil {
		return s, fmt.Errorf("-bsa: %w", err)
	}
	if s.Shapes, err = csvShapes(shapes); err != nil {
		return s, fmt.Errorf("-shapes: %w", err)
	}
	if s.ThetaS, err = csvInts(thetas); err != nil {
		return s, fmt.Errorf("-thetas: %w", err)
	}
	if s.SplitTargets, err = csvFloats(splits); err != nil {
		return s, fmt.Errorf("-splits: %w", err)
	}
	if s.Stratify, err = csvBools(stratify); err != nil {
		return s, fmt.Errorf("-stratify: %w", err)
	}
	if s.ECPThetas, err = csvInts(ecp); err != nil {
		return s, fmt.Errorf("-ecp: %w", err)
	}
	return s, nil
}

func parseShard(spec string) (shard, shards int, err error) {
	i := strings.IndexByte(spec, '/')
	if i < 0 {
		return 0, 0, fmt.Errorf("-shard: want i/n, got %q", spec)
	}
	if shard, err = strconv.Atoi(spec[:i]); err != nil {
		return 0, 0, fmt.Errorf("-shard: %w", err)
	}
	if shards, err = strconv.Atoi(spec[i+1:]); err != nil {
		return 0, 0, fmt.Errorf("-shard: %w", err)
	}
	if shards <= 0 || shard < 0 || shard >= shards {
		return 0, 0, fmt.Errorf("-shard: %d/%d out of range", shard, shards)
	}
	return shard, shards, nil
}

func split(s string) []string {
	if strings.TrimSpace(s) == "" {
		return nil
	}
	parts := strings.Split(s, ",")
	for i := range parts {
		parts[i] = strings.TrimSpace(parts[i])
	}
	return parts
}

func csvInts(s string) ([]int, error) {
	var out []int
	for _, p := range split(s) {
		v, err := strconv.Atoi(p)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

func csvFloats(s string) ([]float64, error) {
	var out []float64
	for _, p := range split(s) {
		v, err := strconv.ParseFloat(p, 64)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

func csvBools(s string) ([]bool, error) {
	var out []bool
	for _, p := range split(s) {
		v, err := strconv.ParseBool(p)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

func csvShapes(s string) ([]bundle.Shape, error) {
	var out []bundle.Shape
	for _, p := range split(s) {
		i := strings.IndexByte(p, 'x')
		if i < 0 {
			return nil, fmt.Errorf("shape %q: want BStxBSn", p)
		}
		bst, err := strconv.Atoi(p[:i])
		if err != nil {
			return nil, err
		}
		bsn, err := strconv.Atoi(p[i+1:])
		if err != nil {
			return nil, err
		}
		out = append(out, bundle.Shape{BSt: bst, BSn: bsn})
	}
	return out, nil
}
