package main

import (
	"context"
	"fmt"
	"os"
	"sync"
	"time"

	"repro/internal/accel"
	"repro/internal/backend"
	"repro/internal/dse"
	"repro/internal/hw"
	"repro/internal/sched"
	"repro/internal/serve"
	"repro/internal/tracefile"
	"repro/internal/transformer"
	"repro/internal/workload"
)

// walker is the traced twin of serve.Run. It executes a sweep spec through
// the same public calls, in the order serve.Run and dse.Sweep make them —
// result-cache lookup, trace acquisition, simulation, checkpoint append,
// cache publication — and records a span around each. Its records must be
// byte-identical to serve.Run's, which the workloads check.
type walker struct {
	rec    *recorder
	parent int64 // span the walk's root spans hang from (0 = none)

	mu sync.Mutex
	// inMemory holds the trace keys the process-wide trace cache already
	// holds, so a trace acquisition can be labelled as a memory hit, a
	// trace-store load, or a generation before it happens.
	inMemory map[uint64]bool
	// evaluated lists what the walk simulated, for the layer breakdown.
	evaluated []evalPoint
	// capacityS sums sweep wall time × evaluators; busyS the part of it
	// spent evaluating, appending and publishing.
	capacityS, busyS        float64
	cacheLookups, cacheHits int
	// onEmit, when set, observes every record a run hands to its
	// OnRecord callback, with the run's job id.
	onEmit func(job string, rec dse.Record)
	// runStarts and runMS record when each job's run began and how long
	// it took.
	runStarts map[string]time.Time
	runMS     []float64
}

// evalPoint is one simulation the walk performed.
type evalPoint struct {
	p        dse.Point
	seed     uint64
	fidelity int
}

func newWalker(rec *recorder, parent int64) *walker {
	return &walker{rec: rec, parent: parent, inMemory: map[uint64]bool{}, runStarts: map[string]time.Time{}}
}

// markInMemory records trace keys that are already in the trace cache.
func (w *walker) markInMemory(keys ...uint64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	for _, k := range keys {
		w.inMemory[k] = true
	}
}

// run has serve.Run's signature, so it also plugs into
// serve.ManagerConfig.RunFunc and dse.Search.
func (w *walker) run(ctx context.Context, spec dse.SweepSpec, opt serve.RunOptions) (*serve.RunResult, error) {
	spec = spec.Normalized()
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if spec.TraceDir != "" {
		workload.SetTraceDir(spec.TraceDir)
	}
	id := spec.ID()
	begin := time.Now()
	w.mu.Lock()
	w.runStarts[id] = begin
	w.mu.Unlock()
	defer func() {
		w.mu.Lock()
		w.runMS = append(w.runMS, ms(time.Since(begin)))
		w.mu.Unlock()
	}()
	if emit, next := w.onEmit, opt.OnRecord; emit != nil {
		opt.OnRecord = func(rec dse.Record) {
			emit(id, rec)
			if next != nil {
				next(rec)
			}
		}
	}
	root := w.rec.start("serve.run", w.parent, id)
	defer root.end()
	points := spec.Points()
	cfg := spec.Config()
	res := &serve.RunResult{}

	var sel map[string]bool
	if cfg.Select != nil {
		sel = make(map[string]bool, len(cfg.Select))
		for _, d := range cfg.Select {
			sel[d] = true
		}
	}
	done := map[string]dse.Record{}
	if opt.Cache != nil {
		lookups := 0
		seen := map[string]bool{}
		for i, p := range points {
			if i%cfg.Shards != cfg.Shard {
				continue
			}
			key := dse.DigestKey(p)
			if seen[key] || (sel != nil && !sel[key]) {
				continue
			}
			seen[key] = true
			sp := w.rec.start("serve.cache_load", root.id(), key)
			rec, ok := opt.Cache.LoadAt(key, cfg.Seed, cfg.Fidelity)
			sp.end()
			lookups++
			if ok {
				rec.Index = i
				done[key] = rec
				res.CacheHits++
				if opt.OnRecord != nil {
					opt.OnRecord(rec)
				}
			}
		}
		w.mu.Lock()
		w.cacheLookups += lookups
		w.cacheHits += res.CacheHits
		w.mu.Unlock()
	}
	var ckpt *dse.CheckpointWriter
	if cfg.Checkpoint != "" {
		sp := w.rec.start("dse.checkpoint_open", root.id(), "")
		c, err := dse.OpenCheckpointWriter(cfg.Checkpoint)
		sp.end()
		if err != nil {
			return nil, err
		}
		ckpt = c
		defer ckpt.Close()
		for _, r := range ckpt.Records() {
			if _, hit := done[r.Digest]; !hit && r.Seed == cfg.Seed && r.Fidelity == cfg.Fidelity {
				done[r.Digest] = r
			}
		}
	}

	var todo []int
	queued := map[string]bool{}
	for i, p := range points {
		if i%cfg.Shards != cfg.Shard {
			continue
		}
		key := dse.DigestKey(p)
		if sel != nil && !sel[key] {
			continue
		}
		if _, ok := done[key]; ok || queued[key] {
			continue
		}
		queued[key] = true
		todo = append(todo, i)
	}

	sweep := w.rec.start("dse.sweep", root.id(), spec.ID())
	t0 := time.Now()
	var mu sync.Mutex
	var busy time.Duration
	fresh := map[string]dse.Record{}
	err := sched.Map(ctx, len(todo), cfg.Jobs, func(k int) error {
		i := todo[k]
		e0 := time.Now()
		rec := w.evaluate(points[i], cfg.Seed, cfg.Fidelity, sweep.id())
		work := time.Since(e0)
		rec.Index = i
		commit := w.rec.start("dse.commit", sweep.id(), rec.Digest)
		defer commit.end()
		mu.Lock()
		defer mu.Unlock()
		c0 := time.Now()
		defer func() { busy += work + time.Since(c0) }()
		if ckpt != nil {
			sp := w.rec.start("dse.checkpoint_append", commit.id(), rec.Digest)
			werr := ckpt.Append(rec)
			sp.end()
			if werr != nil {
				return werr
			}
		}
		fresh[rec.Digest] = rec
		res.CacheMisses++
		if opt.Cache != nil {
			sp := w.rec.start("serve.cache_save", commit.id(), rec.Digest)
			opt.Cache.Save(rec) // best-effort, as in serve.Run
			sp.end()
		}
		if opt.OnRecord != nil {
			opt.OnRecord(rec)
		}
		return nil
	})
	sweep.end()
	if len(todo) > 0 {
		w.mu.Lock()
		w.capacityS += time.Since(t0).Seconds() * float64(min(sched.Workers(cfg.Jobs), len(todo)))
		w.busyS += busy.Seconds()
		w.mu.Unlock()
	}

	rs := &dse.ResultSet{Points: points, Evaluated: len(fresh)}
	for i, p := range points {
		key := dse.DigestKey(p)
		if sel != nil && !sel[key] {
			continue
		}
		rec, ok := fresh[key]
		if !ok {
			if rec, ok = done[key]; !ok {
				continue
			}
		}
		rec.Index = i
		rs.Records = append(rs.Records, rec)
	}
	res.Set = rs
	return res, err
}

// evaluate is dse.EvaluateAt with a span around each stage.
func (w *walker) evaluate(p dse.Point, seed uint64, fidelity int, parent int64) dse.Record {
	if fidelity <= 1 {
		fidelity = 0
	}
	if b, ok := p.Backend.(backend.Bishop); ok {
		p.Opt, p.Backend = b.Opt, nil
	}
	key := dse.DigestKey(p)
	ev := w.rec.start("dse.evaluate", parent, key)
	defer ev.end()

	cfg := transformer.ModelZoo()[p.Model-1]
	sc := workload.Scenarios()[p.Model]
	topt := workload.TraceOptions{BSA: p.BSA, Scale: fidelity}
	tr := w.acquire(cfg, sc, topt, seed, ev.id(), key)

	rec := dse.Record{Digest: key, Model: p.Model, BSA: p.BSA, Seed: seed, Fidelity: fidelity}
	var rep *hw.Report
	if p.Backend == nil {
		opt := p.Opt
		rec.Opt = &opt
		sp := w.rec.start(fmt.Sprintf("accel.simulate.f%d", max(fidelity, 1)), ev.id(), key)
		rep = accel.SimulateSeq(tr, opt)
		sp.end()
	} else {
		rec.Backend = p.Backend.Name()
		data, err := p.Backend.EncodeOptions()
		if err != nil {
			panic(fmt.Sprintf("perfbench: %s options not encodable: %v", rec.Backend, err)) // unreachable: spec points validate
		}
		rec.BackendOpt = data
		sp := w.rec.start("backend."+rec.Backend+"_simulate", ev.id(), key)
		rep = p.Backend.Simulate(tr)
		sp.end()
	}
	order, totals := rep.GroupTotals()
	rec.LatencyMS, rec.EnergyMJ, rec.EDP = rep.LatencyMS(), rep.EnergyMJ(), rep.EDP()
	rec.Total, rec.GroupOrder, rec.Groups = rep.Total, order, totals

	w.mu.Lock()
	w.evaluated = append(w.evaluated, evalPoint{p: p, seed: seed, fidelity: fidelity})
	w.mu.Unlock()
	return rec
}

// acquire is workload.CachedTrace under a span named for what the call is
// about to do: "workload.trace_gen" (generate), "tracefile.store_load" (read
// the trace store) or "workload.trace_mem_hit" (the trace is in memory, or
// another evaluator is producing it).
func (w *walker) acquire(cfg transformer.Config, sc workload.Scenario, topt workload.TraceOptions,
	seed uint64, parent int64, key string) *transformer.Trace {
	tk := workload.TraceDigest(cfg, sc, topt, seed)
	w.mu.Lock()
	first := !w.inMemory[tk]
	w.inMemory[tk] = true
	w.mu.Unlock()
	name := "workload.trace_mem_hit"
	var size int64
	if first {
		name = "workload.trace_gen"
		if dir := workload.TraceDir(); dir != "" {
			if fi, err := os.Stat(tracefile.Store{Dir: dir}.Path(tk)); err == nil {
				name, size = "tracefile.store_load", fi.Size()
			}
		}
	}
	sp := w.rec.start(name, parent, key)
	tr := workload.CachedTrace(cfg, sc, topt, seed)
	sp.endBytes(size)
	return tr
}

// runStart returns when the job's run began.
func (w *walker) runStart(job string) (time.Time, bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	t, ok := w.runStarts[job]
	return t, ok
}

// runDurationsMS lists the durations of the finished runs.
func (w *walker) runDurationsMS() []float64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return append([]float64(nil), w.runMS...)
}

// simulated returns what the walk simulated so far.
func (w *walker) simulated() []evalPoint {
	w.mu.Lock()
	defer w.mu.Unlock()
	return append([]evalPoint(nil), w.evaluated...)
}
