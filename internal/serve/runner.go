// Package serve is the sweep-serving layer: the single runner that executes
// a dse.SweepSpec for every entry point (cmd/dse and the bishopd daemon run
// the identical code path), a digest-addressed result cache that makes
// repeated evaluations O(1) disk lookups, a bounded job manager with
// admission control and cancellation, and the HTTP/JSON handlers bishopd
// mounts (submit a spec, stream records as NDJSON in the checkpoint line
// format, fetch live Pareto frontiers, evaluate single points, list backend
// schemas).
package serve

import (
	"context"

	"repro/internal/dse"
	"repro/internal/workload"
)

// RunOptions attaches the serving-layer machinery to one spec execution.
type RunOptions struct {
	// Cache, when non-nil, is consulted before evaluation for every unit
	// its checkpoint does not hold (dse.Plan.Todo) — hits are adopted
	// without simulation — and receives every fresh record once committed.
	Cache *Cache

	// OnRecord, when non-nil, observes every record the run contributes:
	// cache hits first (before evaluation starts), then fresh evaluations
	// in unit order, each once it is durable in the spec's checkpoint (see
	// dse.Config.OnRecord). Records recovered from a spec checkpoint are not
	// streamed here, and the cache is not read for them — they surface in
	// the final result set. Calls are serialized.
	OnRecord func(dse.Record)
}

// RunResult is the outcome of one spec execution.
type RunResult struct {
	Set *dse.ResultSet
	// CacheHits counts units adopted from the result cache; CacheMisses
	// counts fresh evaluations (each published back to the cache when one
	// is attached).
	CacheHits, CacheMisses int

	// Search carries the rung progression of a RunSearch execution; nil for
	// plain sweeps.
	Search *dse.SearchResult
}

// Run executes a sweep spec: validates it, points the process-wide trace
// store at the spec's trace directory (when set), enumerates the point set,
// opens the sweep's dse.Plan (adopting the checkpoint), adopts cached
// records for the units still missing, and evaluates the rest under ctx —
// what dse.Sweep does, plus the cache. Both cmd/dse and the daemon call
// exactly this function, which is what pins their record sets
// byte-identical for identical specs.
func Run(ctx context.Context, spec dse.SweepSpec, opt RunOptions) (*RunResult, error) {
	spec = spec.Normalized()
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if spec.TraceDir != "" {
		workload.SetTraceDir(spec.TraceDir)
	}
	points := spec.Points()
	cfg := spec.Config()
	res := &RunResult{}
	if opt.Cache != nil || opt.OnRecord != nil {
		cache, emit := opt.Cache, opt.OnRecord
		// The plan makes these calls one at a time, and all of them before
		// Run returns: the counter and the callback need no extra
		// synchronization.
		cfg.OnRecord = func(rec dse.Record) {
			res.CacheMisses++
			if cache != nil {
				cache.Save(rec) // best-effort: a failed publish only costs a later re-evaluation
			}
			if emit != nil {
				emit(rec)
			}
		}
	}
	plan, err := dse.OpenPlan(points, cfg)
	if err != nil {
		return res, err
	}
	defer plan.Close()

	if opt.Cache != nil {
		var hits []dse.Record
		for _, i := range plan.Todo() {
			if rec, ok := opt.Cache.LoadAt(dse.DigestKey(points[i]), cfg.Seed, cfg.Fidelity); ok {
				rec.Index = i
				hits = append(hits, rec)
				if opt.OnRecord != nil {
					opt.OnRecord(rec)
				}
			}
		}
		res.CacheHits = plan.Adopt(hits)
	}
	err = plan.Run(ctx)
	res.Set = plan.Result()
	return res, err
}

// RunSearch executes a successive-halving search spec, driving every rung
// through Run — so the result cache (fidelity-keyed), the trace store, and
// record streaming behave exactly as they do for plain sweeps, and a
// resumed search adopts completed evaluations from both the checkpoint and
// the cache. The returned result's Set is the final full-fidelity rung's
// record set with Evaluated widened to the cross-rung fresh-simulation
// total (so job accounting reflects the whole search); the per-rung
// breakdown is in Search.
func RunSearch(ctx context.Context, spec dse.SearchSpec, opt RunOptions) (*RunResult, error) {
	spec = spec.Normalized()
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	res := &RunResult{}
	sr, err := dse.Search(ctx, spec, func(ctx context.Context, sw dse.SweepSpec) (*dse.ResultSet, error) {
		rr, rerr := Run(ctx, sw, opt)
		if rr != nil {
			res.CacheHits += rr.CacheHits
			res.CacheMisses += rr.CacheMisses
		}
		if rr == nil {
			return nil, rerr
		}
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
