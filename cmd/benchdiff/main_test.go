package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/benchcmp"
)

// writeBench writes a plain `go test -bench` stream of the given rounds,
// one package stream per round as the gate appends them, with BenchmarkA at
// aNs(round) ns/op and 0 allocs/op and BenchmarkB (when withB) at 500 ns/op,
// and returns its path.
func writeBench(t *testing.T, name string, rounds int, aNs func(int) float64, withB bool) string {
	t.Helper()
	var b strings.Builder
	for i := range rounds {
		fmt.Fprintf(&b, "goos: linux\npkg: repro/x\nBenchmarkA-2 \t 100\t %.0f ns/op\t 0 B/op\t 0 allocs/op\n", aNs(i))
		if withB {
			fmt.Fprintf(&b, "BenchmarkB-2 \t 100\t 500 ns/op\n")
		}
		b.WriteString("PASS\n")
	}
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestGate(t *testing.T) {
	const n = benchcmp.Rounds
	jitter := func(i int) float64 { return float64(1000 + 50*(i%3)) }
	base := writeBench(t, "base.txt", n, jitter, true)
	same := writeBench(t, "same.txt", n, func(i int) float64 { return jitter(i + 1) }, true)
	slow := writeBench(t, "slow.txt", n, func(i int) float64 { return 1.5 * jitter(i) }, true)
	lost := writeBench(t, "lost.txt", n, jitter, false)
	short := writeBench(t, "short.txt", n-1, jitter, true)
	for _, c := range []struct {
		args      []string
		regressed bool
		report    []string
	}{
		{[]string{base, same}, false, []string{"repro/x BenchmarkA-2", " 0/20 rounds > 1.10", "2 benchmarks compared, 0 regressions"}},
		{[]string{base, slow}, true, []string{"20/20 rounds > 1.10", "FAIL: repro/x BenchmarkA-2: ns/op: 20 of 20 rounds above +10% (median +50.0%)"}},
		{[]string{base, lost}, true, []string{"lost gate coverage"}},
		{[]string{"-allow-missing", base, lost}, false, []string{"warning: missing from head"}},
		{[]string{lost, base}, false, []string{"new (not in base): repro/x BenchmarkB-2"}},
	} {
		var out bytes.Buffer
		regressed, err := run(c.args, &out)
		if err != nil || regressed != c.regressed {
			t.Errorf("benchdiff %s: regressed=%v err=%v, want regressed=%v:\n%s",
				strings.Join(c.args, " "), regressed, err, c.regressed, out.String())
		}
		for _, want := range c.report {
			if !strings.Contains(out.String(), want) {
				t.Errorf("benchdiff %s: no %q in:\n%s", strings.Join(c.args, " "), want, out.String())
			}
		}
	}
	for _, args := range [][]string{{base}, {base, filepath.Join(t.TempDir(), "missing.txt")}, {"-threshold", "0.6", base, slow}} {
		if _, err := run(args, new(bytes.Buffer)); err == nil {
			t.Errorf("benchdiff %s: no error", strings.Join(args, " "))
		}
	}
	if _, err := run([]string{base, short}, new(bytes.Buffer)); err == nil || !strings.Contains(err.Error(), "repro/x BenchmarkA-2") {
		t.Errorf("benchdiff over unequal rounds: err = %v, want one naming the benchmark", err)
	}
}
