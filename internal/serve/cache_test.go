package serve

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/dse"
)

// TestCacheIgnoresStaleTempFiles pins crash robustness of the cache
// directory: what a dead writer leaves behind — temp files of the
// file-per-record layout the log replaced, and a torn line at the log's
// tail — is invisible to lookups, never blocks a later publication of the
// same key, and stays inert.
func TestCacheIgnoresStaleTempFiles(t *testing.T) {
	cache := &Cache{Dir: t.TempDir()}
	spec := tinySpec()
	p := spec.Points()[0]
	key := fmt.Sprintf("%016x", p.Digest())

	// A dead writer's droppings: a torn temp file (partial JSON) and an
	// empty one, and a torn last line in the log.
	for i, content := range []string{`{"index":0,"dig`, ""} {
		if err := os.WriteFile(filepath.Join(cache.Dir, fmt.Sprintf(".tmp-stale%d", i)), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	torn := "\n" + key + ` 1 0 {"index":0,"dig`
	appendLog(t, cache, torn)

	// Lookups see a clean miss, not the garbage.
	if _, ok := cache.LoadAt(key, 1, 0); ok {
		t.Fatal("lookup served a dead writer's dropping")
	}

	// A full run over the littered directory publishes normally…
	res, err := Run(context.Background(), spec, RunOptions{Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	if res.CacheMisses != len(spec.Points()) {
		t.Fatalf("cold run over littered dir: %d misses, want %d", res.CacheMisses, len(spec.Points()))
	}
	for _, c := range []*Cache{cache, {Dir: cache.Dir}} {
		rec, ok := c.LoadAt(key, 1, 0)
		if !ok {
			t.Fatal("published entry not served after a dead writer's litter")
		}
		if rec.Digest != key {
			t.Fatalf("served record digest %s, want %s", rec.Digest, key)
		}
	}

	// …and the droppings stay inert: the temp files are untouched, and the
	// torn line is closed off as a malformed line of its own.
	data, err := os.ReadFile(filepath.Join(cache.Dir, logName))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(data), torn+"\n") {
		t.Fatalf("log does not keep the torn line apart: %.200q", data)
	}
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
		if e.Name() != logName {
			t.Errorf("unexpected cache dir entry %q", e.Name())
		}
	}
	if stale != 2 {
		t.Fatalf("stale temp files disturbed: %d of 2 remain", stale)
	}
}

// TestCacheCorruptOverwriteIsMissThenRepaired pins the concurrent-corruption
// story: an entry superseded by garbage (a crashed or hostile co-writer
// appending a torn line under its key) degrades to a miss — never an error,
// never a half-read record — and the next publication repairs it while
// concurrent readers, through the writer's Cache or another one over the
// same directory, only ever observe a miss or the complete record.
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

	// Supersede the published entry with a torn document. A Cache that
	// reads the log from here on (another process, a restarted daemon)
	// misses; the one that indexed the good line may keep serving it.
	appendLog(t, cache, "\n"+key+` 1 0 {"index":0,"dig`+"\n")
	other := &Cache{Dir: cache.Dir}
	if _, ok := other.LoadAt(key, 1, 0); ok {
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
			c := []*Cache{cache, other}[r%2]
			for i := 0; i < 50; i++ {
				if rec, ok := c.LoadAt(key, 1, 0); ok {
					if rec.Digest != key || !rec.Valid() {
						t.Errorf("reader observed a partial record: %+v", rec)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	for _, c := range []*Cache{cache, other} {
		repaired, ok := c.LoadAt(key, 1, 0)
		if !ok || repaired.Digest != key {
			t.Fatalf("entry not repaired: ok=%v digest=%s", ok, repaired.Digest)
		}
	}
	// The racing writers published into the log and nowhere else.
	entries, err := os.ReadDir(cache.Dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.Name() != logName {
			t.Errorf("racing writers left %q", e.Name())
		}
	}
}

// TestRunSkipsCacheForCheckpointedUnits pins that the result cache is read
// only for units the spec's checkpoint does not hold: a rerun over a
// complete checkpoint recovers every record from the file, so it reports
// no cache hit, streams nothing through OnRecord and evaluates nothing.
func TestRunSkipsCacheForCheckpointedUnits(t *testing.T) {
	cache := &Cache{Dir: t.TempDir()}
	spec := tinySpec()
	spec.Checkpoint = filepath.Join(t.TempDir(), "sweep.jsonl")
	n := len(spec.Points())
	for run := range 2 {
		streamed := 0
		res, err := Run(context.Background(), spec, RunOptions{Cache: cache, OnRecord: func(dse.Record) { streamed++ }})
		if err != nil {
			t.Fatal(err)
		}
		want := n // the first run evaluates and streams every unit
		if run == 1 {
			want = 0
		}
		if res.CacheHits != 0 || streamed != want || res.Set.Evaluated != want || !res.Set.Complete() {
			t.Fatalf("run %d: %d cache hits, %d streamed, %d evaluated, complete %v; want 0, %d, %d, true",
				run, res.CacheHits, streamed, res.Set.Evaluated, res.Set.Complete(), want, want)
		}
	}
}
