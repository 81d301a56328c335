package main

import (
	"fmt"
	"sync"

	"repro/internal/workload"
)

// endToEndMetrics names every end-to-end metric with its unit, in report
// order. BENCHMARK.json lists the same set (the package tests check it).
var endToEndMetrics = [][2]string{
	{"points_per_s", "points/s"},
	{"ops_per_s", "ops/s"},
	{"submit_first_ms_p50", "ms"},
	{"submit_first_ms_p90", "ms"},
	{"submit_done_ms_p50", "ms"},
	{"submit_done_ms_p90", "ms"},
	{"evaluate_ms_p50", "ms"},
	{"evaluate_ms_p90", "ms"},
	{"success_ratio", "ratio"},
	{"alloc_mb_per_point", "MB/point"},
	{"setup_s", "s"},
	{"sim_speedup_vs_ptb", "x"},
	{"sim_energy_gain_vs_ptb", "x"},
}

// perLayerMetrics names every per-layer metric with its unit.
var perLayerMetrics = [][2]string{
	{"workload.trace_gen_count", "count"},
	{"workload.trace_gen_ms", "ms"},
	{"workload.trace_mem_hit_ratio", "ratio"},
	{"tracefile.store_load_count", "count"},
	{"tracefile.store_load_ms", "ms"},
	{"tracefile.store_load_mb_per_s", "MB/s"},
	{"tracefile.store_hit_ratio", "ratio"},
	{"tracefile.store_errors", "count"},
	{"accel.simulate_ms_per_point.f1", "ms"},
	{"accel.simulate_ms_per_point.f4", "ms"},
	{"accel.simulate_ms_per_point.f8", "ms"},
	{"accel.alloc_mb_per_simulate", "MB"},
	{"backend.ptb_simulate_ms_per_point", "ms"},
	{"accel.layer_ms.proj", "ms"},
	{"accel.layer_ms.mlp", "ms"},
	{"accel.layer_ms.attn", "ms"},
	{"bundle.tag_ms", "ms"},
	{"bundle.stratify_ms", "ms"},
	{"bundle.ecp_prune_ms", "ms"},
	{"hw.core_models_ms", "ms"},
	{"spike.popcount_words", "count"},
	{"spike.count_ns_per_kword", "ns/kword"},
	{"hw.atn_cycle_share", "ratio"},
	{"hw.dram_mb_per_inference", "MB"},
	{"hw.glb_mb_per_inference", "MB"},
	{"hw.ops_acc_per_inference", "count"},
	{"dse.evaluate_ms_per_point", "ms"},
	{"dse.evaluate_self_ms_per_point", "ms"},
	{"dse.checkpoint_appends", "count"},
	{"dse.checkpoint_append_ms_p50", "ms"},
	{"dse.checkpoint_append_ms_p90", "ms"},
	{"dse.worker_idle_share", "ratio"},
	{"dse.rung_s.f8", "s"},
	{"dse.rung_s.f4", "s"},
	{"dse.rung_s.f1", "s"},
	{"serve.cache_load_ms_p50", "ms"},
	{"serve.cache_save_ms_p50", "ms"},
	{"serve.cache_hit_ratio", "ratio"},
	{"serve.queue_wait_ms_p50", "ms"},
	{"serve.queue_wait_ms_p90", "ms"},
	{"serve.run_ms_p50", "ms"},
	{"serve.stream_delay_ms_p50", "ms"},
	{"serve.evaluate_cache_hit_ratio", "ratio"},
	{"serve.http_429", "count"},
	{"serve.http_5xx", "count"},
	{"fleet.merged_records", "count"},
	{"fleet.merge_gap_ms_p50", "ms"},
	{"fleet.first_record_ms", "ms"},
	{"fleet.tail_ms", "ms"},
	{"fleet.releases", "count"},
	{"fleet.worker_balance", "ratio"},
	{"fail_ratio", "ratio"},
	{"trace.overhead_ratio", "ratio"},
}

// phase is what one measured phase of a workload observed.
type phase struct {
	// closedLoop phases report their rates over the loop's whole wall time;
	// batch phases report the median over their operations.
	closedLoop bool
	wall       float64 // closed loop: seconds
	ops        int     // completed operations

	opSeconds []float64 // batch: duration of each operation
	opPoints  []int     // batch: records each operation delivered
	firstMS   []float64 // operation start → first record
	doneMS    []float64 // operation start → operation done
	evalMS    []float64 // single-point evaluations
	evalHits  int       // evaluations the result cache served

	points            int    // records delivered in the phase
	allocBytes        uint64 // heap bytes allocated while operations ran
	attempted, failed int

	digest string      // digest of the sorted record bytes (batch workloads)
	sim    *simFigures // sim figures read off the records, when they hold the paper points

	counters traceCounters      // trace-cache and trace-store outcomes
	layer    map[string]float64 // per-layer values the workload measures itself (traced)
}

func (p *phase) summary() string {
	s := fmt.Sprintf("%d ops, %d points, %d evaluate probes, %d/%d failed", p.ops, p.points, len(p.evalMS), p.failed, p.attempted)
	if p.digest != "" {
		s += ", records " + p.digest
	}
	return s
}

func (p *phase) pointsPerS() float64 {
	if p.closedLoop {
		return ratio(float64(p.points), p.wall)
	}
	rates := make([]float64, len(p.opSeconds))
	for i, d := range p.opSeconds {
		rates[i] = ratio(float64(p.opPoints[i]), d)
	}
	return median(rates)
}

// endToEnd returns the end-to-end metrics; scale takes the measured phase's
// host times to the reference speed (calib.go), and rates divide by it.
// setupS is already scaled.
func (p *phase) endToEnd(setupS float64, sim simFigures, scale float64) map[string]metric {
	opsPerS := ratio(1, median(p.opSeconds))
	if p.closedLoop {
		opsPerS = ratio(float64(p.ops), p.wall)
	}
	v := map[string]float64{
		"points_per_s":           p.pointsPerS() / scale,
		"ops_per_s":              opsPerS / scale,
		"submit_first_ms_p50":    quantile(p.firstMS, 0.5) * scale,
		"submit_first_ms_p90":    quantile(p.firstMS, 0.9) * scale,
		"submit_done_ms_p50":     quantile(p.doneMS, 0.5) * scale,
		"submit_done_ms_p90":     quantile(p.doneMS, 0.9) * scale,
		"evaluate_ms_p50":        quantile(p.evalMS, 0.5) * scale,
		"evaluate_ms_p90":        quantile(p.evalMS, 0.9) * scale,
		"success_ratio":          1 - ratio(float64(p.failed), float64(p.attempted)),
		"alloc_mb_per_point":     ratio(float64(p.allocBytes)/1e6, float64(p.points)),
		"setup_s":                setupS,
		"sim_speedup_vs_ptb":     sim.speedup,
		"sim_energy_gain_vs_ptb": sim.energyGain,
	}
	return table(endToEndMetrics, v)
}

// table attaches units; names without a value report 0.
func table(names [][2]string, v map[string]float64) map[string]metric {
	out := make(map[string]metric, len(names))
	for _, nu := range names {
		out[nu[0]] = metric{Value: v[nu[0]], Unit: nu[1]}
	}
	return out
}

// traceCounters snapshots the process-wide trace-cache statistics.
type traceCounters struct {
	memHits, memMisses, storeHits, storeMisses, storeErrs int64
}

func readCounters() traceCounters {
	var c traceCounters
	c.memHits, c.memMisses = workload.TraceCacheStats()
	c.storeHits, c.storeMisses, c.storeErrs = workload.TraceStoreStats()
	return c
}

func (c traceCounters) plus(o traceCounters) traceCounters {
	return traceCounters{c.memHits + o.memHits, c.memMisses + o.memMisses,
		c.storeHits + o.storeHits, c.storeMisses + o.storeMisses, c.storeErrs + o.storeErrs}
}

func (c traceCounters) minus(o traceCounters) traceCounters {
	return traceCounters{c.memHits - o.memHits, c.memMisses - o.memMisses,
		c.storeHits - o.storeHits, c.storeMisses - o.storeMisses, c.storeErrs - o.storeErrs}
}

// generated counts traces the phase generated (memory misses the store
// did not serve).
func (c traceCounters) generated() int64 { return c.memMisses - c.storeHits }

// tracer is the traced run's state: the span recorder and every walker the
// workload created.
type tracer struct {
	rec *recorder

	mu      sync.Mutex
	walkers []*walker
}

func newTracer() *tracer { return &tracer{rec: newRecorder()} }

// walker returns a new walker whose root spans hang from parent.
func (t *tracer) walker(parent int64) *walker {
	w := newWalker(t.rec, parent)
	t.mu.Lock()
	t.walkers = append(t.walkers, w)
	t.mu.Unlock()
	return w
}

func (t *tracer) simulated() []evalPoint {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []evalPoint
	for _, w := range t.walkers {
		out = append(out, w.simulated()...)
	}
	return out
}

// walkTotals sums the walkers' sweep capacity, busy time and cache lookups.
func (t *tracer) walkTotals() (capacity, busy float64, lookups, hits int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, w := range t.walkers {
		w.mu.Lock()
		capacity += w.capacityS
		busy += w.busyS
		lookups += w.cacheLookups
		hits += w.cacheHits
		w.mu.Unlock()
	}
	return
}

// perLayer derives the per-layer metrics of a traced run.
func perLayer(plain, traced *phase, tr *tracer, ix *spanIndex, bd layerBreakdown, sim simFigures) map[string]metric {
	v := map[string]float64{}
	c := traced.counters

	v["workload.trace_gen_count"] = float64(ix.count("workload.trace_gen"))
	v["workload.trace_gen_ms"] = mean(ix.durationsMS("workload.trace_gen"))
	v["workload.trace_mem_hit_ratio"] = ratio(float64(c.memHits), float64(c.memHits+c.memMisses))

	loads := ix.byName["tracefile.store_load"]
	var loadBytes int64
	for _, s := range loads {
		loadBytes += s.Bytes
	}
	v["tracefile.store_load_count"] = float64(len(loads))
	v["tracefile.store_load_ms"] = mean(ix.durationsMS("tracefile.store_load"))
	v["tracefile.store_load_mb_per_s"] = ratio(float64(loadBytes)/1e6, ix.totalMS("tracefile.store_load")/1e3)
	v["tracefile.store_hit_ratio"] = ratio(float64(c.storeHits), float64(c.storeHits+c.storeMisses))
	v["tracefile.store_errors"] = float64(c.storeErrs)

	for _, f := range []string{"f1", "f4", "f8"} {
		v["accel.simulate_ms_per_point."+f] = mean(ix.durationsMS("accel.simulate." + f))
	}
	v["backend.ptb_simulate_ms_per_point"] = mean(ix.durationsMS("backend.ptb_simulate"))
	v["accel.alloc_mb_per_simulate"] = bd.allocMBPerSimulate
	v["accel.layer_ms.proj"] = bd.projMS
	v["accel.layer_ms.mlp"] = bd.mlpMS
	v["accel.layer_ms.attn"] = bd.attnMS
	v["bundle.tag_ms"] = bd.tagMS
	v["bundle.stratify_ms"] = bd.stratifyMS
	v["bundle.ecp_prune_ms"] = bd.ecpMS
	v["hw.core_models_ms"] = bd.coreMS
	v["spike.popcount_words"] = bd.popcountWords
	v["spike.count_ns_per_kword"] = bd.nsPerKWord

	v["hw.atn_cycle_share"] = sim.atnCycleShare
	v["hw.dram_mb_per_inference"] = sim.dramMB
	v["hw.glb_mb_per_inference"] = sim.glbMB
	v["hw.ops_acc_per_inference"] = sim.opsAcc

	evals := ix.byName["dse.evaluate"]
	var self []float64
	for _, s := range evals {
		self = append(self, ms(ix.self(s)))
	}
	v["dse.evaluate_ms_per_point"] = mean(ix.durationsMS("dse.evaluate"))
	v["dse.evaluate_self_ms_per_point"] = mean(self)
	appends := ix.durationsMS("dse.checkpoint_append")
	v["dse.checkpoint_appends"] = float64(len(appends))
	v["dse.checkpoint_append_ms_p50"] = quantile(appends, 0.5)
	v["dse.checkpoint_append_ms_p90"] = quantile(appends, 0.9)
	capacity, busy, lookups, hits := tr.walkTotals()
	if capacity > 0 {
		v["dse.worker_idle_share"] = 1 - busy/capacity
	}
	for _, f := range []string{"f8", "f4", "f1"} {
		v["dse.rung_s."+f] = mean(ix.durationsMS("dse.rung."+f)) / 1e3
	}

	v["serve.cache_load_ms_p50"] = median(ix.durationsMS("serve.cache_load"))
	v["serve.cache_save_ms_p50"] = median(ix.durationsMS("serve.cache_save"))
	v["serve.cache_hit_ratio"] = ratio(float64(hits), float64(lookups))

	v["fail_ratio"] = ratio(float64(plain.failed), float64(plain.attempted))
	v["trace.overhead_ratio"] = ratio(traced.pointsPerS(), plain.pointsPerS())

	// Values only the workload can observe (daemon and fleet timings,
	// HTTP status counts) replace the span-derived defaults.
	for k, x := range traced.layer {
		v[k] = x
	}
	return table(perLayerMetrics, v)
}
