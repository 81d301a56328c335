package benchcmp

import (
	"strings"
	"testing"
)

// TestParseSplitOutputEvents pins the stitching of split result lines: go
// test writes a benchmark's padded name when it starts and its measurements
// when it finishes, and output in between (a log line) splits the two.
// Parse must stitch them back together, ignore interleaved noise, and not
// let a stray "ns/op" line steal a pending name.
func TestParseSplitOutputEvents(t *testing.T) {
	const stream = `pkg: repro/internal/spike
BenchmarkKernelCount/avx2
 4822818	       241.0 ns/op
BenchmarkKernelOrCount/go
benchmark log: warmup at 12 ns/op
  393400	      3055 ns/op	       0 B/op	       0 allocs/op
pkg: repro/internal/accel
BenchmarkSimulatorSteadyState-8   	     250	   4700000 ns/op
`
	m, err := Parse(strings.NewReader(stream))
	if err != nil {
		t.Fatal(err)
	}
	if len(m) != 3 {
		t.Fatalf("parsed %d results, want 3: %v", len(m), m)
	}
	if r := m["repro/internal/spike BenchmarkKernelCount/avx2"]; len(r.Samples) != 1 || r.Samples[0].NsPerOp != 241 {
		t.Fatalf("split name+metrics not stitched: %+v", r)
	}
	or := m["repro/internal/spike BenchmarkKernelOrCount/go"]
	if len(or.Samples) != 1 || or.Samples[0] != (Sample{NsPerOp: 3055}) {
		t.Fatalf("pending name stolen by log line: %+v", or)
	}
	if r := m["repro/internal/accel BenchmarkSimulatorSteadyState-8"]; len(r.Samples) != 1 || r.Samples[0].NsPerOp != 4700000 {
		t.Fatalf("unsplit line must still parse: %+v", r)
	}
}

// TestParsePlainText pins that repeated measurements of one benchmark stay
// separate samples in stream order (sample i is round i), across the
// per-package streams the gate concatenates.
func TestParsePlainText(t *testing.T) {
	text := `goos: linux
goarch: amd64
pkg: repro/internal/spike
cpu: whatever
BenchmarkKernelCount/go-8      500000   3000 ns/op
PASS
pkg: repro/internal/spike
BenchmarkKernelCount/go-8      500000   2900 ns/op
PASS
`
	m, err := Parse(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	r, ok := m["repro/internal/spike BenchmarkKernelCount/go-8"]
	if !ok || len(r.Samples) != 2 || r.Samples[0].NsPerOp != 3000 || r.Samples[1].NsPerOp != 2900 {
		t.Fatalf("plain-text parse: got %+v (ok=%v)", r, ok)
	}
}

// TestParseMetricLines pins that a full metric line (ns/op, B/op, allocs/op)
// is read in full, that a log line mentioning ns/op is no benchmark, and that
// one name in two packages is two benchmarks.
func TestParseMetricLines(t *testing.T) {
	text := `pkg: repro/internal/spike
BenchmarkKernelCount/go-8      500000   3000 ns/op
some log line mentioning 12 ns/op without being a benchmark
PASS
pkg: repro/internal/accel
BenchmarkKernelCount/go-8   	     250	   4700000 ns/op	       0 B/op	       2 allocs/op
PASS
`
	m, err := Parse(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	if len(m) != 2 {
		t.Fatalf("parsed %d results, want 2: %v", len(m), m)
	}
	if r := m["repro/internal/spike BenchmarkKernelCount/go-8"]; len(r.Samples) != 1 || r.Samples[0].NsPerOp != 3000 {
		t.Fatalf("stray ns/op line read as a sample: got %+v", r)
	}
	a := m["repro/internal/accel BenchmarkKernelCount/go-8"]
	if len(a.Samples) != 1 || a.Samples[0] != (Sample{NsPerOp: 4700000, AllocsPerOp: 2}) {
		t.Fatalf("full metric line in a second package: got %+v", a)
	}
}

// bench returns a Result of n samples, sample i given by f(i).
func bench(name string, n int, f func(i int) Sample) Result {
	r := Result{Pkg: "p", Name: name}
	for i := range n {
		r.Samples = append(r.Samples, f(i))
	}
	return r
}

func asMap(rs ...Result) map[string]Result {
	m := make(map[string]Result)
	for _, r := range rs {
		m[r.Key()] = r
	}
	return m
}

// noisy is a base stream with ±8% round-to-round jitter.
func noisy(i int) Sample { return Sample{NsPerOp: 1000 * (0.92 + 0.04*float64(i%5))} }

// slowIn is noisy made 20% slower in the first k rounds.
func slowIn(k int) func(int) Sample {
	return func(i int) Sample {
		s := noisy(i)
		if i < k {
			s.NsPerOp *= 1.2
		}
		return s
	}
}

// allocs returns noisy with allocs/op given by a(i).
func allocs(a func(i int) float64) func(int) Sample {
	return func(i int) Sample { s := noisy(i); s.AllocsPerOp = a(i); return s }
}

// jitter283 alternates 283 and 284 allocs/op, as BenchmarkSweepGrid does on
// identical code; its phase shifts the alternation between the two sides.
func jitter283(phase int) func(int) float64 {
	return func(i int) float64 { return 283 + float64((i+phase)%2) }
}

// TestCompareFlagsRegressions is the table of the paired sign-test rule.
func TestCompareFlagsRegressions(t *testing.T) {
	for _, c := range []struct {
		name       string
		base, head []Result
		regression bool   // the one compared benchmark regressed
		errSub     string // Compare must fail, naming this
		missing    []string
		added      []string
	}{
		{name: "identical streams pass",
			base: []Result{bench("BenchmarkA", Rounds, noisy)},
			head: []Result{bench("BenchmarkA", Rounds, noisy)}},
		{name: "15 of 20 rounds above 1.10 fail",
			base:       []Result{bench("BenchmarkA", Rounds, noisy)},
			head:       []Result{bench("BenchmarkA", Rounds, slowIn(Critical))},
			regression: true},
		{name: "14 of 20 rounds above 1.10 pass",
			base: []Result{bench("BenchmarkA", Rounds, noisy)},
			head: []Result{bench("BenchmarkA", Rounds, slowIn(Critical-1))}},
		{name: "unequal round counts error, naming the benchmark",
			base:   []Result{bench("BenchmarkA", Rounds, noisy)},
			head:   []Result{bench("BenchmarkA", Rounds-1, noisy)},
			errSub: "p BenchmarkA"},
		{name: "allocs jittering 283/284 across rounds pass",
			base: []Result{bench("BenchmarkA", Rounds, allocs(jitter283(0)))},
			head: []Result{bench("BenchmarkA", Rounds, allocs(jitter283(1)))}},
		{name: "+1 alloc in every head round fails",
			base:       []Result{bench("BenchmarkA", Rounds, allocs(jitter283(0)))},
			head:       []Result{bench("BenchmarkA", Rounds, allocs(func(int) float64 { return 284 }))},
			regression: true},
		{name: "a head-only benchmark is new",
			base:  []Result{bench("BenchmarkA", Rounds, noisy)},
			head:  []Result{bench("BenchmarkA", Rounds, noisy), bench("BenchmarkNew", 3, noisy)},
			added: []string{"p BenchmarkNew"}},
		{name: "a base-only benchmark is missing",
			base:    []Result{bench("BenchmarkA", Rounds, noisy), bench("BenchmarkGone", Rounds, noisy)},
			head:    []Result{bench("BenchmarkA", Rounds, noisy)},
			missing: []string{"p BenchmarkGone"}},
	} {
		t.Run(c.name, func(t *testing.T) {
			rep, err := Compare(asMap(c.base...), asMap(c.head...))
			if c.errSub != "" {
				if err == nil || !strings.Contains(err.Error(), c.errSub) {
					t.Fatalf("err = %v, want one naming %q", err, c.errSub)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if len(rep.Deltas) != 1 || rep.Deltas[0].Regression != c.regression {
				t.Fatalf("deltas %+v, want one with Regression=%v", rep.Deltas, c.regression)
			}
			if !equal(rep.MissingKeys, c.missing) || !equal(rep.NewKeys, c.added) {
				t.Fatalf("missing %v new %v, want %v and %v", rep.MissingKeys, rep.NewKeys, c.missing, c.added)
			}
		})
	}
}

func equal(a, b []string) bool { return strings.Join(a, "\n") == strings.Join(b, "\n") }

// TestCompareReportsRoundCounts pins the numbers a failure reports: the
// count of rounds above the threshold, the median ratio, and both minima of
// an alloc regression.
func TestCompareReportsRoundCounts(t *testing.T) {
	base := asMap(bench("BenchmarkA", Rounds, allocs(func(int) float64 { return 0 })))
	head := asMap(bench("BenchmarkA", Rounds, allocs(func(int) float64 { return 2 })))
	head["p BenchmarkA"].Samples[0].NsPerOp *= 1.5
	rep, err := Compare(base, head)
	if err != nil {
		t.Fatal(err)
	}
	d := rep.Deltas[0]
	if d.Above != 1 || d.Median != 1 || d.Reason != "allocs/op (minimum over rounds) 0 -> 2" {
		t.Fatalf("got %+v", d)
	}
	rep, err = Compare(base, asMap(bench("BenchmarkA", Rounds, slowIn(Rounds))))
	if err != nil {
		t.Fatal(err)
	}
	if d := rep.Deltas[0]; d.Reason != "ns/op: 20 of 20 rounds above +10% (median +20.0%)" {
		t.Fatalf("got %+v", d)
	}
}

// TestCompareCancelsHostDrift pins what replaced host-speed calibration: drift
// that slows a whole round on both sides alike cancels in the pair, so a
// host running twice as slow for half the gate raises no alarm, and a
// benchmark 30% slower on top of that drift still fails.
func TestCompareCancelsHostDrift(t *testing.T) {
	drift := func(f func(int) Sample) func(int) Sample {
		return func(i int) Sample {
			s := f(i)
			if i >= Rounds/2 {
				s.NsPerOp *= 2
			}
			return s
		}
	}
	slower := func(i int) Sample { s := noisy(i); s.NsPerOp *= 1.3; return s }
	base := asMap(bench("BenchmarkSame", Rounds, drift(noisy)), bench("BenchmarkWorse", Rounds, drift(noisy)))
	head := asMap(bench("BenchmarkSame", Rounds, drift(noisy)), bench("BenchmarkWorse", Rounds, drift(slower)))
	rep, err := Compare(base, head)
	if err != nil {
		t.Fatal(err)
	}
	regs := rep.Regressions()
	if len(regs) != 1 || regs[0].Key != "p BenchmarkWorse" || regs[0].Above != Rounds {
		t.Fatalf("paired regressions under drift: %+v", regs)
	}
}

// TestCompareSubAllocRounding pins that fractional allocs/op noise (large
// counts rounding differently across runs) never trips the gate: growth
// must amount to at least one whole allocation per op.
func TestCompareSubAllocRounding(t *testing.T) {
	base := asMap(bench("B-8", Rounds, allocs(func(int) float64 { return 100 })))
	head := asMap(bench("B-8", Rounds, allocs(func(int) float64 { return 100.6 })))
	rep, err := Compare(base, head)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Regressions()) != 0 {
		t.Fatalf("sub-alloc rounding flagged: %+v", rep.Regressions())
	}
}
