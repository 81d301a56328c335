package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/dse"
	"repro/internal/serve"
)

// startWorkers stands up n in-process bishopd APIs and returns their
// comma-joined URLs for -workers.
func startWorkers(t *testing.T, n int) string {
	t.Helper()
	var urls []string
	for range n {
		mgr := serve.NewManager(serve.ManagerConfig{})
		ts := httptest.NewServer(serve.NewServer(mgr).Handler())
		t.Cleanup(func() {
			ts.Close()
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			mgr.Close(ctx)
		})
		urls = append(urls, ts.URL)
	}
	return strings.Join(urls, ",")
}

// writeDoc writes an encoded spec document to a file and returns its path.
func writeDoc(t *testing.T, encode func() ([]byte, error)) string {
	t.Helper()
	data, err := encode()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "spec.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func runCtl(t *testing.T, args ...string) string {
	t.Helper()
	var out bytes.Buffer
	if err := run(args, &out); err != nil {
		t.Fatalf("bishopctl %s: %v\n%s", strings.Join(args, " "), err, out.String())
	}
	return out.String()
}

// TestRunMergesByteIdentical runs a spec across two workers: the merged
// checkpoint equals the single-evaluator serve.Run checkpoint byte for
// byte, the frontier artifact is written, and the identical command
// resumes everything from the checkpoint.
func TestRunMergesByteIdentical(t *testing.T) {
	spec := dse.SweepSpec{Space: dse.Space{Models: []int{4}, BSA: []bool{false, true}, ECPThetas: []int{0, 2, 4, 6, 8, 10}}}
	doc := writeDoc(t, func() ([]byte, error) { return dse.EncodeSpec(spec) })
	dir := t.TempDir()
	ref := spec
	ref.Checkpoint, ref.Jobs = filepath.Join(dir, "ref.jsonl"), 1
	if _, err := serve.Run(context.Background(), ref, serve.RunOptions{}); err != nil {
		t.Fatal(err)
	}

	ck := filepath.Join(dir, "merged.jsonl")
	front := filepath.Join(dir, "frontier.json")
	args := []string{"run", "-q", "-spec", doc, "-workers", startWorkers(t, 2), "-checkpoint", ck}
	out := runCtl(t, append(args, "-frontier", front)...)
	if !strings.Contains(out, "12 records (0 resumed, 12 fresh) across 2 workers") {
		t.Fatalf("run summary:\n%s", out)
	}
	want, err := os.ReadFile(ref.Checkpoint)
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(ck)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("merged checkpoint differs from serve.Run's:\n got %s\nwant %s", got, want)
	}
	var fj dse.FrontierJSON
	data, err := os.ReadFile(front)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &fj); err != nil || len(fj.Points) == 0 || fj.Evaluated != 12 {
		t.Fatalf("frontier artifact: %v, %d points over %d records", err, len(fj.Points), fj.Evaluated)
	}

	if out := runCtl(t, args...); !strings.Contains(out, "12 records (12 resumed, 0 fresh)") {
		t.Fatalf("resumed run summary:\n%s", out)
	}
}

// TestSearchAcrossWorkers runs a two-rung search on the fleet and reports
// its rungs through the shared printer.
func TestSearchAcrossWorkers(t *testing.T) {
	spec := dse.SearchSpec{Space: dse.Space{Models: []int{4}, ECPThetas: []int{0, 2, 4, 6}}, Rungs: []int{8, 1}}
	doc := writeDoc(t, func() ([]byte, error) { return dse.EncodeSearchSpec(spec) })
	dir := t.TempDir()
	front := filepath.Join(dir, "frontier.json")
	out := runCtl(t, "search", "-q", "-spec", doc, "-workers", startWorkers(t, 2),
		"-checkpoint", filepath.Join(dir, "search.jsonl"), "-frontier", front)
	for _, want := range []string{
		"bishopctl: rung 1: fidelity 1/8 ",
		"bishopctl: rung 2: full fidelity ",
		"bishopctl: full-fidelity evaluations: 2 of 4 grid points",
		"bishopctl: frontier (",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("search report lacks %q:\n%s", want, out)
		}
	}
}

func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		nil,
		{"status"},
		{"run", "-spec", "s.json"},
		{"search", "-workers", "a", "-checkpoint", "c"},
		{"run", "-spec", filepath.Join(t.TempDir(), "missing.json"), "-workers", "a", "-checkpoint", "c"},
	} {
		if err := run(args, new(bytes.Buffer)); err == nil {
			t.Errorf("bishopctl %s: no error", strings.Join(args, " "))
		}
	}
}
