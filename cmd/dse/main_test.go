package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/dse"
	"repro/internal/serve"
	"repro/internal/tracefile"
	"repro/internal/transformer"
	"repro/internal/workload"
)

// runDSE runs the command in-process and returns what it printed.
func runDSE(t *testing.T, args ...string) string {
	t.Helper()
	var out bytes.Buffer
	if err := run(args, &out); err != nil {
		t.Fatalf("dse %s: %v\n%s", strings.Join(args, " "), err, out.String())
	}
	return out.String()
}

// matchInts returns the integer submatches of re in out, failing the test
// when re does not match.
func matchInts(t *testing.T, re, out string) []int {
	t.Helper()
	m := regexp.MustCompile(re).FindStringSubmatch(out)
	if m == nil {
		t.Fatalf("output has no line matching %q:\n%s", re, out)
	}
	var ns []int
	for _, s := range m[1:] {
		n, err := strconv.Atoi(s)
		if err != nil {
			t.Fatal(err)
		}
		ns = append(ns, n)
	}
	return ns
}

func readFile(t *testing.T, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// readFrontier decodes a -frontier artifact and fails on an empty one.
func readFrontier(t *testing.T, path string) dse.FrontierJSON {
	t.Helper()
	var fj dse.FrontierJSON
	if err := json.Unmarshal(readFile(t, path), &fj); err != nil {
		t.Fatalf("frontier %s: %v", path, err)
	}
	if len(fj.Points) == 0 {
		t.Fatalf("frontier %s has no points", path)
	}
	return fj
}

func sortedLines(data []byte) []string {
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	slices.Sort(lines)
	return lines
}

// TestFlagSweepWritesFrontierAndResumes runs a small flag-defined sweep to
// a non-empty frontier, then repeats it on the same checkpoint: the re-run
// evaluates nothing and leaves the checkpoint byte-identical.
func TestFlagSweepWritesFrontierAndResumes(t *testing.T) {
	dir := t.TempDir()
	ck := filepath.Join(dir, "dse.jsonl")
	front := filepath.Join(dir, "frontier.json")
	args := []string{"-models", "4", "-shapes", "4x2,2x2", "-ecp", "0,10", "-checkpoint", ck}

	out := runDSE(t, append(args, "-frontier", front)...)
	if n := matchInts(t, `evaluated (\d+) points`, out)[0]; n != 4 {
		t.Fatalf("first run evaluated %d points, want 4:\n%s", n, out)
	}
	if fj := readFrontier(t, front); fj.Evaluated != 4 {
		t.Fatalf("frontier over %d records, want 4", fj.Evaluated)
	}
	before := readFile(t, ck)

	out = runDSE(t, args...)
	if n := matchInts(t, `evaluated (\d+) points`, out)[0]; n != 0 {
		t.Fatalf("resumed run evaluated %d points, want 0:\n%s", n, out)
	}
	if after := readFile(t, ck); !bytes.Equal(after, before) {
		t.Fatalf("resumed run rewrote the checkpoint: %d -> %d bytes", len(before), len(after))
	}
}

// TestBackendsEachContribute sweeps all three backends and requires every
// one of them to contribute records to a non-empty cross-backend frontier.
func TestBackendsEachContribute(t *testing.T) {
	front := filepath.Join(t.TempDir(), "frontier.json")
	out := runDSE(t, "-models", "4", "-backends", "bishop,ptb,gpu", "-ecp", "0,10", "-frontier", front)
	for _, b := range []string{"bishop", "ptb", "gpu"} {
		if n := matchInts(t, `backend `+b+`: (\d+) records`, out)[0]; n < 1 {
			t.Errorf("backend %s contributed %d records", b, n)
		}
	}
	readFrontier(t, front)
}

// TestSavedSpecMatchesServeRun compiles a spec with -print-spec and runs it
// back with -spec: the -records dump equals the records serve.Run (the
// runner bishopd executes) produces for the same spec, and a -checkpoint
// given next to -spec overrides the document's and receives every record.
func TestSavedSpecMatchesServeRun(t *testing.T) {
	dir := t.TempDir()
	spec := filepath.Join(dir, "spec.json")
	recs := filepath.Join(dir, "cli.jsonl")
	ck := filepath.Join(dir, "ck.jsonl")
	doc := runDSE(t, "-models", "4", "-backends", "bishop,ptb,gpu", "-ecp", "0,10", "-print-spec")
	if err := os.WriteFile(spec, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	runDSE(t, "-spec", spec, "-records", recs, "-checkpoint", ck)

	s, err := dse.DecodeSpec([]byte(doc))
	if err != nil {
		t.Fatal(err)
	}
	s.Checkpoint = filepath.Join(dir, "ref.jsonl")
	res, err := serve.Run(context.Background(), s, serve.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	for _, r := range res.Set.Records {
		line, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		want.Write(line)
		want.WriteByte('\n')
	}
	if got := readFile(t, recs); !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("-spec -records dump differs from serve.Run:\n got %s\nwant %s", got, want.Bytes())
	}
	if got, ref := readFile(t, ck), readFile(t, s.Checkpoint); !bytes.Equal(got, ref) {
		t.Fatalf("-spec -checkpoint file differs from serve.Run's checkpoint:\n got %s\nwant %s", got, ref)
	}
}

// TestSavedDocumentRejectsDefinitionFlags pins the saved-document rule: a
// -spec or -search file is the whole definition, and the search-only and
// sweep-only flags stay in their modes.
func TestSavedDocumentRejectsDefinitionFlags(t *testing.T) {
	dir := t.TempDir()
	spec := filepath.Join(dir, "spec.json")
	search := filepath.Join(dir, "search.json")
	for path, args := range map[string][]string{
		spec:   {"-models", "4", "-print-spec"},
		search: {"-models", "4", "-ecp", "0,6", "-rungs", "8,1", "-print-spec"},
	} {
		if err := os.WriteFile(path, []byte(runDSE(t, args...)), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-spec", spec, "-models", "3"}, "-models conflicts with -spec"},
		{[]string{"-spec", spec, "-shard", "0/2"}, "-shard conflicts with -spec"},
		{[]string{"-search", search, "-seed", "2"}, "-seed conflicts with -search"},
		{[]string{"-search", search, "-eta", "3"}, "-eta conflicts with -search"},
		{[]string{"-search", search, "-spec", spec}, "-spec conflicts with search mode"},
		{[]string{"-rungs", "8,1", "-shard", "0/2"}, "-shard does not apply to search mode"},
		{[]string{"-objective", "energy"}, "-objective only applies to search mode"},
	} {
		err := run(c.args, new(bytes.Buffer))
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("dse %s: error %v, want %q", strings.Join(c.args, " "), err, c.want)
		}
	}
}

// TestTraceDirShardsReadStore packs the traces of a small sweep into a store
// (what `trace pack -dir` writes), runs the sweep as two -trace-dir shards,
// and requires each shard to load its traces from the store and the shards'
// records to equal those of an unsharded run that generates its own traces.
func TestTraceDirShardsReadStore(t *testing.T) {
	dir := t.TempDir()
	store := filepath.Join(dir, "traces")
	t.Cleanup(func() {
		workload.SetTraceDir("")
		workload.ResetTraceCache()
	})
	cfg, sc := transformer.ModelZoo()[3], workload.Scenarios()[4]
	for _, bsa := range []bool{false, true} {
		opt := workload.TraceOptions{BSA: bsa}
		key := workload.TraceDigest(cfg, sc, opt, 1)
		if err := (tracefile.Store{Dir: store}).Save(key, workload.SyntheticTrace(cfg, sc, opt, 1)); err != nil {
			t.Fatal(err)
		}
	}

	sweep := []string{"-models", "4", "-bsa", "false,true", "-ecp", "0,10"}
	var sharded []byte
	for i := range 2 {
		workload.ResetTraceCache() // each shard starts as a fresh process would
		ck := filepath.Join(dir, "shard"+strconv.Itoa(i)+".jsonl")
		out := runDSE(t, append(sweep, "-trace-dir", store, "-shard", strconv.Itoa(i)+"/2", "-checkpoint", ck)...)
		st := matchInts(t, `trace store .*: (\d+) hits, (\d+) misses, (\d+) errors`, out)
		if st[0] < 1 || st[1] != 0 || st[2] != 0 {
			t.Fatalf("shard %d: store hits/misses/errors %v, want every trace from the store:\n%s", i, st, out)
		}
		sharded = append(sharded, readFile(t, ck)...)
	}

	workload.SetTraceDir("")
	workload.ResetTraceCache()
	full := filepath.Join(dir, "full.jsonl")
	runDSE(t, append(sweep, "-checkpoint", full)...)
	if got, want := sortedLines(sharded), sortedLines(readFile(t, full)); !slices.Equal(got, want) {
		t.Fatalf("store-backed shards differ from the generating sweep:\n got %q\nwant %q", got, want)
	}
}

// TestSearchHalvesGridAndResumes runs a successive-halving search over a
// 96-point space: at most half the grid reaches full fidelity, a re-run of
// the saved search document on the same checkpoint evaluates nothing, and
// every full-fidelity record is a line of the plain grid sweep.
func TestSearchHalvesGridAndResumes(t *testing.T) {
	dir := t.TempDir()
	ck := filepath.Join(dir, "search.jsonl")
	front := filepath.Join(dir, "frontier.json")
	doc := filepath.Join(dir, "search.json")
	space := []string{"-models", "4", "-bsa", "false,true", "-shapes", "4x2,2x2,1x2,4x4",
		"-ecp", "0,2,4,6,8,10", "-stratify", "true,false"}
	search := append(slices.Clone(space), "-rungs", "8,4,1", "-eta", "2")

	out := runDSE(t, append(search, "-checkpoint", ck, "-frontier", front)...)
	ff := matchInts(t, `full-fidelity evaluations: (\d+) of (\d+) grid points`, out)
	full, grid := ff[0], ff[1]
	if grid != 96 || full < 1 || 2*full > grid {
		t.Fatalf("%d of %d grid points at full fidelity, want 1..%d:\n%s", full, grid, grid/2, out)
	}
	readFrontier(t, front)

	if err := os.WriteFile(doc, []byte(runDSE(t, append(search, "-print-spec")...)), 0o644); err != nil {
		t.Fatal(err)
	}
	out = runDSE(t, "-search", doc, "-checkpoint", ck)
	if n := matchInts(t, `search total: (\d+) fresh evaluations`, out)[0]; n != 0 {
		t.Fatalf("resumed search made %d fresh evaluations:\n%s", n, out)
	}

	gridCk := filepath.Join(dir, "grid.jsonl")
	runDSE(t, append(space, "-checkpoint", gridCk)...)
	inGrid := map[string]bool{}
	for _, line := range sortedLines(readFile(t, gridCk)) {
		inGrid[line] = true
	}
	var survivors int
	for _, line := range sortedLines(readFile(t, ck)) {
		if strings.Contains(line, `"fidelity"`) {
			continue // a proxy-rung record
		}
		survivors++
		if !inGrid[line] {
			t.Fatalf("full-fidelity search record is not a grid sweep line:\n%s", line)
		}
	}
	if survivors != full {
		t.Fatalf("checkpoint holds %d full-fidelity records, the summary said %d", survivors, full)
	}
}
