package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/tracefile"
	"repro/internal/transformer"
	"repro/internal/workload"
)

// runTrace runs the command in-process and returns what it printed.
func runTrace(t *testing.T, args ...string) string {
	t.Helper()
	var out bytes.Buffer
	if err := run(args, &out); err != nil {
		t.Fatalf("trace %s: %v\n%s", strings.Join(args, " "), err, out.String())
	}
	return out.String()
}

// TestPackVerifyInfoSim packs a two-trace store, checks the files land at
// the digest-addressed paths cmd/dse -trace-dir reads, verifies and
// inspects them, and simulates one written with -o.
func TestPackVerifyInfoSim(t *testing.T) {
	dir := t.TempDir()
	store := filepath.Join(dir, "traces")
	out := runTrace(t, "pack", "-models", "4", "-bsa", "false,true", "-seed", "1", "-dir", store)
	if n := strings.Count(out, "packed  "); n != 2 {
		t.Fatalf("pack wrote %d traces, want 2:\n%s", n, out)
	}
	cfg, sc := transformer.ModelZoo()[3], workload.Scenarios()[4]
	var paths []string
	for _, bsa := range []bool{false, true} {
		p := tracefile.Store{Dir: store}.Path(workload.TraceDigest(cfg, sc, workload.TraceOptions{BSA: bsa}, 1))
		if !strings.Contains(out, p) {
			t.Fatalf("pack did not write %s:\n%s", p, out)
		}
		paths = append(paths, p)
	}
	if out := runTrace(t, "pack", "-models", "4", "-bsa", "false,true", "-seed", "1", "-dir", store); strings.Count(out, "exists  ") != 2 {
		t.Fatalf("re-pack regenerated stored traces:\n%s", out)
	}

	out = runTrace(t, append([]string{"verify"}, paths...)...)
	if n := strings.Count(out, "ok      "); n != 2 {
		t.Fatalf("verify passed %d of 2 files:\n%s", n, out)
	}
	if out := runTrace(t, append([]string{"info"}, paths...)...); strings.Count(out, "digest ") != 2 {
		t.Fatalf("info:\n%s", out)
	}

	one := filepath.Join(dir, "m4.btrc")
	runTrace(t, "pack", "-models", "4", "-o", one)
	if out := runTrace(t, "info", one); !strings.Contains(out, "meta model=4") {
		t.Fatalf("info of -o file lacks provenance:\n%s", out)
	}
	if out := runTrace(t, "sim", one); !strings.Contains(out, "latency") {
		t.Fatalf("sim:\n%s", out)
	}
}

func TestUsageErrors(t *testing.T) {
	dir := t.TempDir()
	for _, args := range [][]string{
		nil,
		{"nope"},
		{"pack", "-models", "4"},
		{"pack", "-models", "4,5", "-o", filepath.Join(dir, "x.btrc")},
		{"pack", "-models", "9", "-dir", dir},
		{"verify"},
		{"verify", filepath.Join(dir, "missing.btrc")},
		{"sim"},
	} {
		if err := run(args, new(bytes.Buffer)); err == nil {
			t.Errorf("trace %s: no error", strings.Join(args, " "))
		}
	}
}
