package workload

import (
	"fmt"
	"os"
	"reflect"
	"sync"
	"testing"

	"repro/internal/bundle"
	"repro/internal/tracefile"
	"repro/internal/transformer"
)

func TestCachedTraceSharesOneTrace(t *testing.T) {
	cfg := transformer.ModelZoo()[3] // smallest full-size model (DVS)
	sc := Scenarios()[4]
	a := CachedTrace(cfg, sc, TraceOptions{}, 42)
	b := CachedTrace(cfg, sc, TraceOptions{}, 42)
	if a != b {
		t.Fatal("same key must return the same trace pointer")
	}
	// A zero shape and the explicit default are the same effective key.
	c := CachedTrace(cfg, sc, TraceOptions{Shape: bundle.DefaultShape}, 42)
	if c != a {
		t.Fatal("zero shape must normalize to the default-shape entry")
	}
	if d := CachedTrace(cfg, sc, TraceOptions{}, 43); d == a {
		t.Fatal("different seed must yield a different trace")
	}
	if e := CachedTrace(cfg, sc, TraceOptions{BSA: true}, 42); e == a {
		t.Fatal("different options must yield a different trace")
	}
}

func TestCachedTraceMatchesSynthetic(t *testing.T) {
	cfg := transformer.ModelZoo()[3]
	sc := Scenarios()[4]
	cached := CachedTrace(cfg, sc, TraceOptions{}, 7)
	direct := SyntheticTrace(cfg, sc, TraceOptions{}, 7)
	if !reflect.DeepEqual(cached, direct) {
		t.Fatal("cached trace must be identical to direct synthesis")
	}
}

func mustPanic(t *testing.T, name string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s: expected panic", name)
		}
	}()
	fn()
}

// TestPartialShapeRejected pins the aliasing bugfix: only the true zero
// Shape defaults to bundle.DefaultShape; a partially specified shape used
// to silently alias onto the default-shape cache entry and now panics.
func TestPartialShapeRejected(t *testing.T) {
	cfg := transformer.ModelZoo()[3]
	sc := Scenarios()[4]
	for _, sh := range []bundle.Shape{{BSt: 0, BSn: 5}, {BSt: 5, BSn: 0}, {BSt: -1, BSn: 2}, {BSt: 2, BSn: -1}} {
		sh := sh
		mustPanic(t, fmt.Sprintf("CachedTrace shape %+v", sh), func() {
			CachedTrace(cfg, sc, TraceOptions{Shape: sh}, 1)
		})
		mustPanic(t, fmt.Sprintf("SyntheticTrace shape %+v", sh), func() {
			SyntheticTrace(cfg, sc, TraceOptions{Shape: sh}, 1)
		})
	}
}

// TestDistinctShapesDistinctEntries: fully specified non-default shapes
// must never share a cache entry with each other or with the default.
func TestDistinctShapesDistinctEntries(t *testing.T) {
	cfg := transformer.ModelZoo()[3]
	sc := Scenarios()[4]
	a := CachedTrace(cfg, sc, TraceOptions{Shape: bundle.Shape{BSt: 4, BSn: 2}}, 11)
	b := CachedTrace(cfg, sc, TraceOptions{Shape: bundle.Shape{BSt: 2, BSn: 4}}, 11)
	c := CachedTrace(cfg, sc, TraceOptions{}, 11)
	if a == b {
		t.Fatal("4x2 and 2x4 shapes share one cache entry")
	}
	if a != c {
		t.Fatal("explicit default shape and zero shape must share the entry")
	}
}

func TestResetTraceCache(t *testing.T) {
	cfg := transformer.ModelZoo()[3]
	sc := Scenarios()[4]
	a := CachedTrace(cfg, sc, TraceOptions{}, 1001)
	ResetTraceCache()
	if h, m := TraceCacheStats(); h != 0 || m != 0 {
		t.Fatalf("stats not reset: hits=%d misses=%d", h, m)
	}
	b := CachedTrace(cfg, sc, TraceOptions{}, 1001)
	if a == b {
		t.Fatal("reset cache must regenerate, not return the old pointer")
	}
	if h, m := TraceCacheStats(); h != 0 || m != 1 {
		t.Fatalf("want a single fresh miss, got hits=%d misses=%d", h, m)
	}
}

func TestTraceDigestStable(t *testing.T) {
	cfg := transformer.ModelZoo()[3]
	sc := Scenarios()[4]
	zero := TraceDigest(cfg, sc, TraceOptions{}, 5)
	if TraceDigest(cfg, sc, TraceOptions{Shape: bundle.DefaultShape}, 5) != zero {
		t.Fatal("zero shape and explicit default must digest identically")
	}
	if TraceDigest(cfg, sc, TraceOptions{BSA: true}, 5) == zero {
		t.Fatal("BSA must change the digest")
	}
	if TraceDigest(cfg, sc, TraceOptions{}, 6) == zero {
		t.Fatal("seed must change the digest")
	}
	if TraceDigest(cfg, sc, TraceOptions{Shape: bundle.Shape{BSt: 2, BSn: 4}}, 5) == zero {
		t.Fatal("shape must change the digest")
	}
}

// TestCachedTraceDiskStore exercises the opt-in store end to end: generate
// + persist, reload from disk in a "new process" (cache reset), and fall
// back to regeneration when the stored file is corrupt.
func TestCachedTraceDiskStore(t *testing.T) {
	dir := t.TempDir()
	ResetTraceCache()
	SetTraceDir(dir)
	defer func() { SetTraceDir(""); ResetTraceCache() }()

	cfg := transformer.ModelZoo()[3]
	sc := Scenarios()[4]
	opt := TraceOptions{BSA: true}
	tr1 := CachedTrace(cfg, sc, opt, 77)
	st := tracefile.Store{Dir: dir}
	key := TraceDigest(cfg, sc, opt, 77)
	if _, err := os.Stat(st.Path(key)); err != nil {
		t.Fatalf("trace not persisted at its digest path: %v", err)
	}
	if h, m, e := TraceStoreStats(); h != 0 || m != 1 || e != 0 {
		t.Fatalf("after generate: store stats hits=%d misses=%d errors=%d", h, m, e)
	}

	ResetTraceCache() // simulate a fresh process sharing the directory
	tr2 := CachedTrace(cfg, sc, opt, 77)
	if h, m, e := TraceStoreStats(); h != 1 || m != 0 || e != 0 {
		t.Fatalf("after reload: store stats hits=%d misses=%d errors=%d", h, m, e)
	}
	if !reflect.DeepEqual(tr1, tr2) {
		t.Fatal("trace loaded from the store differs from the generated one")
	}

	// A corrupt stored file regenerates (and re-persists) instead of failing.
	if err := os.WriteFile(st.Path(key), []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	ResetTraceCache()
	tr3 := CachedTrace(cfg, sc, opt, 77)
	if !reflect.DeepEqual(tr1, tr3) {
		t.Fatal("regenerated trace differs after store corruption")
	}
	if _, _, e := TraceStoreStats(); e == 0 {
		t.Fatal("corrupt store entry must be counted as an error")
	}
	ResetTraceCache()
	if tr4 := CachedTrace(cfg, sc, opt, 77); !reflect.DeepEqual(tr1, tr4) {
		t.Fatal("store entry not healed after corruption")
	}
	if h, _, _ := TraceStoreStats(); h != 1 {
		t.Fatal("healed store entry must load again")
	}
}

// TestCachedTraceDiskStoreRejectsForeignConfig: a hand-placed (or stale)
// file at the right digest path but describing a different model must be
// rejected and regenerated, never fed to the simulators.
func TestCachedTraceDiskStoreRejectsForeignConfig(t *testing.T) {
	dir := t.TempDir()
	ResetTraceCache()
	SetTraceDir(dir)
	defer func() { SetTraceDir(""); ResetTraceCache() }()

	cfg := transformer.ModelZoo()[3]
	sc := Scenarios()[4]
	foreignCfg := transformer.Tiny(cfg, 11, 512)
	foreign := SyntheticTrace(foreignCfg, sc, TraceOptions{}, 5)
	st := tracefile.Store{Dir: dir}
	key := TraceDigest(cfg, sc, TraceOptions{}, 5)
	if err := st.Save(key, foreign); err != nil {
		t.Fatal(err)
	}
	tr := CachedTrace(cfg, sc, TraceOptions{}, 5)
	if tr.Cfg != cfg {
		t.Fatal("served the foreign trace instead of regenerating")
	}
	if _, _, e := TraceStoreStats(); e == 0 {
		t.Fatal("foreign entry must be counted as a store error")
	}
	// The regeneration healed the entry in place.
	ResetTraceCache()
	if got := CachedTrace(cfg, sc, TraceOptions{}, 5); got.Cfg != cfg {
		t.Fatal("store entry not healed")
	}
	if h, _, _ := TraceStoreStats(); h != 1 {
		t.Fatal("healed entry must load from the store")
	}
}

func TestCachedTraceConcurrentSingleflight(t *testing.T) {
	cfg := transformer.ModelZoo()[3]
	sc := Scenarios()[4]
	const goroutines = 16
	out := make([]*transformer.Trace, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out[g] = CachedTrace(cfg, sc, TraceOptions{}, 99)
		}()
	}
	wg.Wait()
	for g := 1; g < goroutines; g++ {
		if out[g] != out[0] {
			t.Fatal("concurrent callers must share one computed trace")
		}
	}
	hits, misses := TraceCacheStats()
	if hits == 0 || misses == 0 {
		t.Fatalf("stats not tracking: hits=%d misses=%d", hits, misses)
	}
}
