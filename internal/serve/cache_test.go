package serve

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// TestCacheIgnoresStaleTempFiles pins crash robustness of the cache
// directory: temp files left behind by a SIGKILLed writer (the atomic
// publication never happened) are invisible to lookups, never block a later
// publication of the same key, and are not mistaken for entries.
func TestCacheIgnoresStaleTempFiles(t *testing.T) {
	cache := &Cache{Dir: t.TempDir()}
	spec := tinySpec()
	p := spec.Points()[0]
	key := fmt.Sprintf("%016x", p.Digest())

	// A dead writer's droppings: a torn temp file (partial JSON) and an
	// empty one, both in the publication directory.
	for i, content := range []string{`{"index":0,"dig`, ""} {
		if err := os.WriteFile(filepath.Join(cache.Dir, fmt.Sprintf(".tmp-stale%d", i)), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	// Lookups see a clean miss, not the garbage.
	if _, ok := cache.LoadAt(key, 1, 0); ok {
		t.Fatal("lookup served a stale temp file")
	}

	// A full run over the littered directory publishes normally…
	res, err := Run(context.Background(), spec, RunOptions{Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	if res.CacheMisses != len(spec.Points()) {
		t.Fatalf("cold run over littered dir: %d misses, want %d", res.CacheMisses, len(spec.Points()))
	}
	rec, ok := cache.LoadAt(key, 1, 0)
	if !ok {
		t.Fatal("published entry not served after stale-temp litter")
	}
	if rec.Digest != key {
		t.Fatalf("served record digest %s, want %s", rec.Digest, key)
	}

	// …and the stale temp files are still inert files, not entries: every
	// real entry file parses, temp files were never renamed into place.
	entries, err := os.ReadDir(cache.Dir)
	if err != nil {
		t.Fatal(err)
	}
	stale := 0
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), ".tmp-stale") {
			stale++
			continue
		}
		if !strings.HasSuffix(e.Name(), ".json") {
			t.Errorf("unexpected cache dir entry %q", e.Name())
		}
	}
	if stale != 2 {
		t.Fatalf("stale temp files disturbed: %d of 2 remain", stale)
	}
}

// TestCacheCorruptOverwriteIsMissThenRepaired pins the concurrent-corruption
// story: an entry overwritten with garbage (a crashed or hostile co-writer)
// degrades to a miss — never an error, never a half-read record — and the
// next publication atomically repairs it while concurrent readers only ever
// observe miss or the complete record.
func TestCacheCorruptOverwriteIsMissThenRepaired(t *testing.T) {
	cache := &Cache{Dir: t.TempDir()}
	spec := tinySpec()
	if _, err := Run(context.Background(), spec, RunOptions{Cache: cache}); err != nil {
		t.Fatal(err)
	}
	p := spec.Points()[0]
	key := fmt.Sprintf("%016x", p.Digest())
	good, ok := cache.LoadAt(key, 1, 0)
	if !ok {
		t.Fatal("expected entry before corruption")
	}

	// Clobber the published entry in place with a torn document.
	if err := os.WriteFile(cache.PathAt(key, 1, 0), []byte(`{"index":0,"dig`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := cache.LoadAt(key, 1, 0); ok {
		t.Fatal("corrupt overwrite served as a hit")
	}

	// Concurrent re-publication against concurrent readers: readers must see
	// either a miss or the full record — nothing in between — and the entry
	// ends up repaired.
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := cache.Save(good); err != nil {
				t.Errorf("repair save: %v", err)
			}
		}()
	}
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if rec, ok := cache.LoadAt(key, 1, 0); ok {
					if rec.Digest != key || !rec.Valid() {
						t.Errorf("reader observed a partial record: %+v", rec)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	repaired, ok := cache.LoadAt(key, 1, 0)
	if !ok || repaired.Digest != key {
		t.Fatalf("entry not repaired: ok=%v digest=%s", ok, repaired.Digest)
	}
	// No temp residue from the racing writers.
	entries, err := os.ReadDir(cache.Dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), ".tmp-") {
			t.Errorf("racing writers leaked temp file %q", e.Name())
		}
	}
}
