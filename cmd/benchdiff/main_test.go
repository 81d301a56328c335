package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeBench writes a plain `go test -bench` stream and returns its path.
func writeBench(t *testing.T, name, body string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestGate(t *testing.T) {
	base := writeBench(t, "base.txt", "BenchmarkA-2 100 1000 ns/op 0 B/op 0 allocs/op\nBenchmarkB-2 100 500 ns/op\n")
	same := writeBench(t, "same.txt", "BenchmarkA-2 100 1050 ns/op 0 B/op 0 allocs/op\nBenchmarkB-2 100 500 ns/op\n")
	slow := writeBench(t, "slow.txt", "BenchmarkA-2 100 1500 ns/op 0 B/op 0 allocs/op\nBenchmarkB-2 100 500 ns/op\n")
	lost := writeBench(t, "lost.txt", "BenchmarkA-2 100 1000 ns/op 0 B/op 0 allocs/op\n")
	for _, c := range []struct {
		args      []string
		regressed bool
		report    string
	}{
		{[]string{base, same}, false, "2 benchmarks compared, 0 regressions"},
		{[]string{base, slow}, true, "BenchmarkA-2: ns/op 1000 -> 1500"},
		{[]string{"-threshold", "0.6", base, slow}, false, "0 regressions"},
		{[]string{base, lost}, true, "lost gate coverage"},
		{[]string{"-allow-missing", base, lost}, false, "warning: missing from head"},
	} {
		var out bytes.Buffer
		regressed, err := run(c.args, &out)
		if err != nil || regressed != c.regressed || !strings.Contains(out.String(), c.report) {
			t.Errorf("benchdiff %s: regressed=%v err=%v, want regressed=%v and %q in:\n%s",
				strings.Join(c.args, " "), regressed, err, c.regressed, c.report, out.String())
		}
	}
	for _, args := range [][]string{{base}, {base, filepath.Join(t.TempDir(), "missing.txt")}} {
		if _, err := run(args, new(bytes.Buffer)); err == nil {
			t.Errorf("benchdiff %s: no error", strings.Join(args, " "))
		}
	}
}
