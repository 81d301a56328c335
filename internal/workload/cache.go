package workload

import (
	"errors"
	"os"
	"sync"
	"sync/atomic"

	"repro/internal/hw"
	"repro/internal/tracefile"
	"repro/internal/transformer"
)

// traceKey identifies a synthetic trace exactly: the model configuration,
// the calibrated activity scenario, the normalized trace options, and the
// seed. All fields are comparable value types, so the key works as a map key
// without serialization.
type traceKey struct {
	cfg  transformer.Config
	sc   Scenario
	opt  TraceOptions
	seed uint64
}

// traceEntry guards one cached trace: the sync.Once gives singleflight
// semantics, so concurrent requests for the same key compute it exactly
// once and everyone shares the result.
type traceEntry struct {
	once sync.Once
	tr   *transformer.Trace
}

var traceCache = struct {
	mu sync.Mutex
	m  map[traceKey]*traceEntry
}{m: map[traceKey]*traceEntry{}}

var cacheHits, cacheMisses atomic.Int64
var storeHits, storeMisses, storeErrors atomic.Int64

// CachedTrace returns the SyntheticTrace for (cfg, sc, opt, seed),
// computing it at most once per process — and, when a trace directory is
// configured (SetTraceDir), at most once per *store*:
// a miss in memory first looks the trace up by its generation-input digest
// on disk, and a generated trace is persisted atomically for other
// processes. Every simulator in this repo treats traces as read-only, which
// is what makes sharing one trace across concurrent experiment drivers
// safe; callers must preserve that property.
func CachedTrace(cfg transformer.Config, sc Scenario, opt TraceOptions, seed uint64) *transformer.Trace {
	opt = opt.normalized()
	key := traceKey{cfg: cfg, sc: sc, opt: opt, seed: seed}

	traceCache.mu.Lock()
	e, ok := traceCache.m[key]
	if !ok {
		e = &traceEntry{}
		traceCache.m[key] = e
	}
	traceCache.mu.Unlock()

	computed := false
	e.once.Do(func() {
		e.tr = materializeTrace(cfg, sc, opt, seed)
		computed = true
	})
	if computed {
		cacheMisses.Add(1)
	} else {
		cacheHits.Add(1)
	}
	return e.tr
}

// ResetTraceCache drops every cached trace and zeroes all cache and store
// statistics. Tests use it for isolation; long-lived drivers can call it
// between sweep phases to release trace memory.
func ResetTraceCache() {
	traceCache.mu.Lock()
	traceCache.m = map[traceKey]*traceEntry{}
	traceCache.mu.Unlock()
	cacheHits.Store(0)
	cacheMisses.Store(0)
	storeHits.Store(0)
	storeMisses.Store(0)
	storeErrors.Store(0)
}

// TraceCacheStats reports how often CachedTrace reused an in-memory trace
// versus generating (or loading) one.
func TraceCacheStats() (hits, misses int64) {
	return cacheHits.Load(), cacheMisses.Load()
}

// TraceStoreStats reports disk-store outcomes: hits (trace loaded from
// disk), misses (generated, then persisted), and errors (unreadable stored
// file — regenerated — or a failed persist; both are non-fatal).
func TraceStoreStats() (hits, misses, errs int64) {
	return storeHits.Load(), storeMisses.Load(), storeErrors.Load()
}

var traceDir struct {
	sync.Mutex
	dir string
}

// SetTraceDir points the disk-backed trace store at dir; "" disables it.
func SetTraceDir(dir string) {
	traceDir.Lock()
	defer traceDir.Unlock()
	traceDir.dir = dir
}

// TraceDir returns the configured trace-store directory; "" means the
// store is disabled.
func TraceDir() string {
	traceDir.Lock()
	defer traceDir.Unlock()
	return traceDir.dir
}

// traceGenVersion names the SyntheticTrace generator revision and is part
// of every store key. Bump it whenever generation changes for identical
// inputs, so store entries persisted by an older generator are regenerated
// instead of silently reused.
const traceGenVersion = 1

// TraceDigest fingerprints the generation inputs of a synthetic trace — the
// key the disk store is addressed by. Following the accel.Options.Digest
// conventions, it is a 64-bit FNV-1a over the canonical JSON encoding of the
// normalized inputs, so it is stable across processes, field ordering, and
// default spellings (the zero Shape and an explicit DefaultShape digest
// identically).
func TraceDigest(cfg transformer.Config, sc Scenario, opt TraceOptions, seed uint64) uint64 {
	return hw.DigestJSON(struct {
		Gen  int
		Cfg  transformer.Config
		Sc   Scenario
		Opt  TraceOptions
		Seed uint64
	}{traceGenVersion, cfg, sc, opt.normalized(), seed})
}

// materializeTrace produces the trace for a cache miss: from the disk store
// when one is configured and holds the key, otherwise by generation —
// persisting the fresh trace for other processes. Store failures are
// counted but never fatal: an unreadable file falls back to regeneration,
// and a failed persist still returns the in-memory trace.
func materializeTrace(cfg transformer.Config, sc Scenario, opt TraceOptions, seed uint64) *transformer.Trace {
	dir := TraceDir()
	if dir == "" {
		return SyntheticTrace(cfg, sc, opt, seed)
	}
	st := tracefile.Store{Dir: dir}
	key := TraceDigest(cfg, sc, opt, seed)
	tr, err := st.Load(key)
	switch {
	case err == nil:
		// The file is internally consistent, but the key only hashes
		// generation inputs — a foreign or hand-placed file could still
		// describe a different model. Reject it rather than feed the
		// simulators a trace for the wrong configuration. Scaled proxy
		// traces record the scaled T/N in Cfg, so compare against that.
		if tr.Cfg == opt.ScaledConfig(cfg) {
			storeHits.Add(1)
			return tr
		}
		storeErrors.Add(1)
	case errors.Is(err, os.ErrNotExist):
		storeMisses.Add(1)
	default:
		storeErrors.Add(1)
	}
	tr = SyntheticTrace(cfg, sc, opt, seed)
	if err := st.Save(key, tr); err != nil {
		storeErrors.Add(1)
	}
	return tr
}
