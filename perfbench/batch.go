package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"repro/internal/bundle"
	"repro/internal/dse"
	"repro/internal/serve"
	"repro/internal/transformer"
	"repro/internal/workload"
)

// pinsJSON holds the sorted-record digests of grid-cold and search-warm at
// seed 1: a change that alters a single record byte fails the run.
//
//go:embed pins.json
var pinsJSON []byte

func pinnedDigest(name string) (string, error) {
	var pins map[string]string
	if err := json.Unmarshal(pinsJSON, &pins); err != nil {
		return "", fmt.Errorf("pins.json: %w", err)
	}
	return pins[name], nil
}

// checkPin compares a record digest with the pinned one (seed 1, full
// scale only).
func checkPin(e *env, name, digest string) error {
	if e.opt.tiny || e.opt.seed != 1 {
		return nil
	}
	want, err := pinnedDigest(name)
	if err != nil {
		return err
	}
	if want == "" {
		fmt.Fprintf(os.Stderr, "perfbench: no pinned digest for %s; this run's is %s\n", name, digest)
		return nil
	}
	if digest != want {
		return checkf("%s records digest %s, pinned %s", name, digest, want)
	}
	return nil
}

// checkpointLines reads a checkpoint and returns the digest of its sorted
// lines and each line keyed by record digest and fidelity.
func checkpointLines(path string) (string, map[string][]byte, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return "", nil, err
	}
	lines := bytes.Split(bytes.TrimSuffix(data, []byte("\n")), []byte("\n"))
	byKey := make(map[string][]byte, len(lines))
	for _, l := range lines {
		rec, ok := dse.ParseRecordLine(l)
		if !ok {
			return "", nil, checkf("%s: malformed record line %q", path, l)
		}
		byKey[recordKey(rec.Digest, rec.Fidelity)] = l
	}
	sort.Slice(lines, func(a, b int) bool { return bytes.Compare(lines[a], lines[b]) < 0 })
	h := sha256.New()
	for _, l := range lines {
		h.Write(l)
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil)), byKey, nil
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

func recordKey(digest string, fidelity int) string { return fmt.Sprintf("%s.f%d", digest, fidelity) }

// probe is one point a batch workload re-evaluates with dse.EvaluateAt.
type probe struct {
	p        dse.Point
	index    int
	fidelity int
}

// runProbes re-evaluates each probe with dse.EvaluateAt, times it, and
// requires the record to equal the checkpoint line byte for byte.
func runProbes(ph *phase, probes []probe, seed uint64, lines map[string][]byte) error {
	for _, pb := range probes {
		t0 := time.Now()
		rec := dse.EvaluateAt(pb.p, seed, pb.fidelity)
		ph.evalMS = append(ph.evalMS, ms(time.Since(t0)))
		rec.Index = pb.index
		got, err := json.Marshal(rec)
		if err != nil {
			return err
		}
		if want := lines[recordKey(rec.Digest, rec.Fidelity)]; !bytes.Equal(got, want) {
			return checkf("dse.EvaluateAt record for %s differs from the sweep's:\n got %s\nwant %s", rec.Digest, got, want)
		}
	}
	return nil
}

// timedOp runs one batch operation and files its timings in ph. It times the
// reference kernel first (calib.go).
func timedOp(e *env, ph *phase, op func(onRecord func(dse.Record)) error) (int, error) {
	isolate()
	if err := e.calibrate(); err != nil {
		return 0, err
	}
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	n := 0
	var first time.Duration
	t0 := time.Now()
	err := op(func(dse.Record) {
		if n == 0 {
			first = time.Since(t0)
		}
		n++
	})
	d := time.Since(t0)
	runtime.ReadMemStats(&after)
	ph.attempted++
	if err != nil {
		ph.failed++
		return n, err
	}
	ph.ops++
	ph.points += n
	ph.opSeconds = append(ph.opSeconds, d.Seconds())
	ph.opPoints = append(ph.opPoints, n)
	ph.firstMS = append(ph.firstMS, ms(first))
	ph.doneMS = append(ph.doneMS, ms(d))
	ph.allocBytes += after.TotalAlloc - before.TotalAlloc
	return n, nil
}

// more reports whether a batch phase runs another operation: at least two,
// then until the phase has lasted the run's seconds.
func more(e *env, i int, start time.Time) bool {
	return i < 2 || time.Since(start).Seconds() < e.opt.seconds
}

// fixedProbes selects the probes of a point set: every stratified bishop
// point on the default 4x2 bundle with ECP off or at θ=6, for each model and
// BSA setting. The set has the same mix of model sizes on every seed, so
// the evaluate latencies compare across seeds.
func fixedProbes(points []dse.Point, fidelity int) []probe {
	var out []probe
	for i, p := range points {
		o := p.Opt
		if p.Backend == nil && o.Shape == bundle.DefaultShape && o.Stratify && (o.ECP == nil || o.ECP.ThetaQ == 6) {
			out = append(out, probe{p: p, index: i, fidelity: fidelity})
		}
	}
	return out
}

var allShapes = []bundle.Shape{{BSt: 4, BSn: 2}, {BSt: 2, BSn: 2}, {BSt: 1, BSn: 2}, {BSt: 4, BSn: 4}}

func models(tiny bool) []int {
	if tiny {
		return []int{4}
	}
	return []int{1, 2, 3, 4, 5}
}

// warmUp evaluates one point the measured phase never uses (another trace
// seed), so the first operation does not pay for page faults and heap
// growth, then drops the trace.
func warmUp(seed uint64) {
	dse.EvaluateAt(dse.Point{Model: 5, Opt: dse.Space{}.Grid()[0].Opt}, seed+1<<32, 0)
	isolate()
}

// gridCold is a full-fidelity grid through serve.Run with a checkpoint and
// no result cache, from an empty trace cache and no trace store.
type gridCold struct {
	spec   dse.SweepSpec
	probes []probe
	traces int // distinct traces the grid needs
}

func (g *gridCold) setup(e *env) error {
	isolate()
	space := dse.Space{Models: models(e.opt.tiny), BSA: []bool{false, true}, Backends: []string{"bishop", "ptb"},
		Shapes: allShapes, ECPThetas: []int{0, 6}}
	if e.opt.tiny {
		space.Shapes = allShapes[:2]
	}
	g.spec = dse.SweepSpec{Space: space, Seed: e.opt.seed, Jobs: e.jobs}
	g.probes = fixedProbes(g.spec.Points(), 0)
	g.traces = len(space.Models) * len(space.BSA)
	warmUp(e.opt.seed)
	return nil
}

func (g *gridCold) measure(e *env, tr *tracer) (*phase, error) {
	ph := &phase{}
	ctx := context.Background()
	var last *serve.RunResult
	for i, start := 0, time.Now(); more(e, i, start); i++ {
		dir, err := e.scratch("grid")
		if err != nil {
			return nil, err
		}
		spec := g.spec
		spec.Checkpoint = filepath.Join(dir, "grid.ckpt")
		var res *serve.RunResult
		n, err := timedOp(e, ph, func(onRecord func(dse.Record)) (err error) {
			opt := serve.RunOptions{OnRecord: onRecord}
			if tr == nil {
				res, err = serve.Run(ctx, spec, opt)
				return err
			}
			op := tr.rec.start("op", 0, spec.ID())
			defer op.end()
			res, err = tr.walker(op.id()).run(ctx, spec, opt)
			return err
		})
		if isCheck(err) {
			return nil, err
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: grid-cold operation failed: %v\n", err)
			continue
		}
		c := readCounters()
		ph.counters = ph.counters.plus(c)
		if c.storeHits != 0 || c.generated() != int64(g.traces) {
			return nil, checkf("grid-cold: %d store hits and %d traces generated, want 0 and %d", c.storeHits, c.generated(), g.traces)
		}
		if total := len(spec.Points()); n != total || res.Set.Evaluated != total {
			return nil, checkf("grid-cold: %d records delivered, %d evaluated, want %d", n, res.Set.Evaluated, total)
		}
		if err := checkRecords(e, ph, spec.Checkpoint, g.probes); err != nil {
			return nil, err
		}
		last = res
		os.RemoveAll(dir)
	}
	if last != nil && !e.opt.tiny && e.opt.seed == paperSeed {
		f, err := figuresFromRecords(last.Set.Records)
		if err != nil {
			return nil, err
		}
		ph.sim = &f
	}
	return ph, checkPin(e, "grid-cold", ph.digest)
}

// checkRecords compares an operation's checkpoint with the phase's earlier
// ones and re-evaluates the probes against it.
func checkRecords(e *env, ph *phase, ckpt string, probes []probe) error {
	digest, lines, err := checkpointLines(ckpt)
	if err != nil {
		return err
	}
	if ph.digest == "" {
		ph.digest = digest
	} else if digest != ph.digest {
		return checkf("records digest %s differs from the phase's first operation (%s)", digest, ph.digest)
	}
	return runProbes(ph, probes, e.opt.seed, lines)
}

func (g *gridCold) close() {}

// searchWarm is successive halving through serve.RunSearch over a trace
// store packed in setup, with checkpoint and an initially empty result
// cache; the in-memory trace cache is empty before every operation.
type searchWarm struct {
	spec   dse.SearchSpec
	store  string
	probes []probe
}

func (s *searchWarm) setup(e *env) error {
	isolate()
	space := dse.Space{Models: models(e.opt.tiny), BSA: []bool{false, true}, Shapes: allShapes,
		ECPThetas: []int{0, 4, 6, 8}, Stratify: []bool{true, false}}
	if e.opt.tiny {
		space.Shapes, space.ECPThetas = allShapes[:2], []int{0, 6}
	}
	s.spec = dse.SearchSpec{Space: space, Seed: e.opt.seed, Rungs: []int{8, 4, 1}, Eta: 2, Jobs: e.jobs}
	dir, err := e.scratch("traces")
	if err != nil {
		return err
	}
	s.store = dir
	workload.SetTraceDir(dir)
	for _, m := range space.Models {
		cfg := transformer.ModelZoo()[m-1]
		sc := workload.Scenarios()[m]
		for _, bsa := range space.BSA {
			for _, f := range s.spec.Rungs {
				workload.CachedTrace(cfg, sc, workload.TraceOptions{BSA: bsa, Scale: f}, e.opt.seed)
			}
		}
	}
	traces := len(space.Models) * len(space.BSA) * len(s.spec.Rungs)
	if _, misses, errs := workload.TraceStoreStats(); misses != int64(traces) || errs != 0 {
		return fmt.Errorf("packing the trace store: %d traces written, %d errors, want %d and 0", misses, errs, traces)
	}
	// Every point runs on the first rung, so its records verify the probes.
	s.probes = fixedProbes(s.spec.Points(), s.spec.Rungs[0])
	warmUp(e.opt.seed)
	return nil
}

func (s *searchWarm) measure(e *env, tr *tracer) (*phase, error) {
	ph := &phase{}
	ctx := context.Background()
	for i, start := 0, time.Now(); more(e, i, start); i++ {
		dir, err := e.scratch("search")
		if err != nil {
			return nil, err
		}
		spec := s.spec
		spec.Checkpoint = filepath.Join(dir, "search.ckpt")
		spec.TraceDir = s.store
		opt := serve.RunOptions{Cache: &serve.Cache{Dir: filepath.Join(dir, "cache")}}
		var res *serve.RunResult
		n, err := timedOp(e, ph, func(onRecord func(dse.Record)) (err error) {
			opt.OnRecord = onRecord
			if tr == nil {
				res, err = serve.RunSearch(ctx, spec, opt)
				return err
			}
			res, err = tracedSearch(ctx, tr, spec, opt)
			return err
		})
		if isCheck(err) {
			return nil, err
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: search-warm operation failed: %v\n", err)
			continue
		}
		c := readCounters()
		ph.counters = ph.counters.plus(c)
		recs, err := dse.LoadCheckpoint(spec.Checkpoint)
		if err != nil {
			return nil, err
		}
		traces := map[[3]int]bool{} // model, BSA, fidelity: one trace each
		for _, r := range recs {
			traces[[3]int{r.Model, boolInt(r.BSA), r.Fidelity}] = true
		}
		if c.generated() != 0 || c.storeErrs != 0 || c.storeHits != int64(len(traces)) {
			return nil, checkf("search-warm: %d traces generated, %d store errors, %d store loads, want 0, 0 and %d",
				c.generated(), c.storeErrs, c.storeHits, len(traces))
		}
		want := 0
		for _, r := range res.Search.Rungs {
			want += r.Candidates
		}
		if n != want || res.CacheHits != 0 || res.Set.Evaluated != want {
			return nil, checkf("search-warm: %d records delivered, %d evaluated, %d cache hits, want %d, %d and 0",
				n, res.Set.Evaluated, res.CacheHits, want, want)
		}
		if err := checkRecords(e, ph, spec.Checkpoint, s.probes); err != nil {
			return nil, err
		}
		os.RemoveAll(dir)
	}
	return ph, checkPin(e, "search-warm", ph.digest)
}

// tracedSearch is serve.RunSearch with each rung run by a walker inside a
// "dse.rung.f<k>" span.
func tracedSearch(ctx context.Context, tr *tracer, spec dse.SearchSpec, opt serve.RunOptions) (*serve.RunResult, error) {
	op := tr.rec.start("op", 0, spec.ID())
	defer op.end()
	w := tr.walker(op.id())
	res := &serve.RunResult{}
	sr, err := dse.Search(ctx, spec, func(ctx context.Context, sw dse.SweepSpec) (*dse.ResultSet, error) {
		rung := tr.rec.start(fmt.Sprintf("dse.rung.f%d", max(sw.Fidelity, 1)), op.id(), sw.ID())
		defer rung.end()
		rr, rerr := w.run(ctx, sw, opt)
		if rr == nil {
			return nil, rerr
		}
		res.CacheHits += rr.CacheHits
		res.CacheMisses += rr.CacheMisses
		return rr.Set, rerr
	})
	res.Search = sr
	if sr != nil && sr.Final != nil {
		set := *sr.Final
		set.Evaluated = sr.Evaluated
		res.Set = &set
	}
	return res, err
}

func (s *searchWarm) close() {}
