// Package benchcmp compares two interleaved benchmark runs — the library
// behind cmd/benchdiff, the CI gate that keeps the popcount kernel and the
// other zero-alloc hot paths from quietly rotting.
//
// `make bench-gate` builds the test binaries of a base commit and of the
// working tree and runs them in alternation, package by package, one sample
// of every benchmark per side per round. Round i of the base and round i of
// the head are therefore measured back to back on the same host, under the
// same drift. Compare pairs the i-th samples and runs a sign test on the
// round ratios (head ns/op ÷ base ns/op): a benchmark regresses when at
// least Critical of its Rounds ratios exceed 1+Threshold. If the true
// slowdown were exactly Threshold, each round would exceed it with
// probability 1/2, so the rule's false-alarm rate at the threshold is
// P(Binomial(20, 1/2) ≥ 15) ≈ 0.021, with no randomness in the decision.
package benchcmp

import (
	"bufio"
	"fmt"
	"io"
	"maps"
	"slices"
	"strconv"
	"strings"
)

const (
	// Rounds is the number of paired samples each benchmark must have on
	// both sides.
	Rounds = 20
	// Threshold is the tolerated fractional ns/op growth of one round.
	Threshold = 0.10
	// Critical is the number of rounds above 1+Threshold that makes a
	// regression.
	Critical = 15
)

// Sample is one measurement of a benchmark.
type Sample struct {
	NsPerOp     float64
	AllocsPerOp float64
}

// Result is every measurement of one benchmark in one stream.
type Result struct {
	Pkg  string // import path ("" when the stream carried no pkg line)
	Name string // full name including sub-benchmark path and -P suffix

	Samples []Sample // in stream order: sample i is round i
}

// Key identifies the benchmark across streams.
func (r Result) Key() string { return r.Pkg + " " + r.Name }

// minAllocs is the fewest allocs/op over the samples: allocation counts of
// large benchmarks jitter by one between runs of identical code (amortized
// growth in a pool or map), and the minimum is the count the code needs.
func (r Result) minAllocs() float64 {
	m := r.Samples[0].AllocsPerOp
	for _, s := range r.Samples[1:] {
		m = min(m, s.AllocsPerOp)
	}
	return m
}

// parser collects benchmark result lines. go test writes a benchmark's name
// when it starts and its measurements when it finishes — two separate
// writes, which other output (a log line) can split — so the parser carries
// the pending name until the measurement line arrives. A single-write line
// carrying both parses directly.
type parser struct {
	results map[string]Result
	pending string // benchmark name awaiting numbers
}

// Parse reads one plain-text `go test -bench` stream (or several
// concatenated) and returns every benchmark's samples keyed by Result.Key.
func Parse(r io.Reader) (map[string]Result, error) {
	p := parser{results: make(map[string]Result)}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	pkg := "" // current package, from the stream's `pkg:` header
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if rest, ok := strings.CutPrefix(line, "pkg: "); ok {
			pkg = strings.TrimSpace(rest)
			continue
		}
		p.addLine(pkg, line)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("benchcmp: %w", err)
	}
	return p.results, nil
}

// addLine records one output line's sample, if it carries one.
func (p *parser) addLine(pkg, line string) {
	f := strings.Fields(line)
	if len(f) == 0 {
		return
	}
	if strings.HasPrefix(f[0], "Benchmark") && len(f[0]) > len("Benchmark") {
		if len(f) == 1 {
			p.pending = f[0] // name flushed alone; numbers follow
			return
		}
	} else if p.pending != "" && strings.Contains(line, "ns/op") {
		f = append([]string{p.pending}, f...) // continuation of a split line
	} else {
		return
	}
	if !strings.Contains(line, "ns/op") || len(f) < 4 {
		return
	}
	if _, err := strconv.Atoi(f[1]); err != nil {
		return // not an iteration count — a stray line mentioning ns/op
	}
	var s Sample
	ok := false
	for i := 2; i+1 < len(f); i += 2 {
		v, err := strconv.ParseFloat(f[i], 64)
		if err != nil {
			return
		}
		switch f[i+1] {
		case "ns/op":
			s.NsPerOp, ok = v, true
		case "allocs/op":
			s.AllocsPerOp = v
		}
	}
	if !ok {
		return
	}
	p.pending = ""
	r := Result{Pkg: pkg, Name: f[0]}
	r.Samples = append(p.results[r.Key()].Samples, s)
	p.results[r.Key()] = r
}

// Delta is the paired comparison of one benchmark present in both streams.
type Delta struct {
	Key string
	// Above counts the rounds whose head/base ns/op ratio exceeds
	// 1+Threshold.
	Above int
	// Median is the median round ratio, for the report.
	Median     float64
	Regression bool
	Reason     string // why it regressed ("" when it did not)
}

// Report is the full comparison of two streams.
type Report struct {
	Deltas      []Delta  // sorted by Key
	MissingKeys []string // in base but not head: lost gate coverage
	NewKeys     []string // in head but not base: nothing to pair with
}

// Regressions returns the deltas that failed the rule.
func (rep Report) Regressions() []Delta {
	var out []Delta
	for _, d := range rep.Deltas {
		if d.Regression {
			out = append(out, d)
		}
	}
	return out
}

// Compare pairs head against base round by round. It errors when a
// benchmark present on both sides does not have Rounds samples on each: the
// sign test's error rate holds only for the paired design it was sized for.
func Compare(base, head map[string]Result) (Report, error) {
	var rep Report
	for _, k := range slices.Sorted(maps.Keys(base)) {
		b := base[k]
		h, ok := head[k]
		if !ok {
			rep.MissingKeys = append(rep.MissingKeys, k)
			continue
		}
		if len(b.Samples) != Rounds || len(h.Samples) != Rounds {
			return Report{}, fmt.Errorf("benchcmp: %s: %d base and %d head samples, want %d paired rounds",
				k, len(b.Samples), len(h.Samples), Rounds)
		}
		d := Delta{Key: k}
		ratios := make([]float64, Rounds)
		for i := range ratios {
			ratios[i] = h.Samples[i].NsPerOp / b.Samples[i].NsPerOp
			if ratios[i] > 1+Threshold {
				d.Above++
			}
		}
		slices.Sort(ratios)
		d.Median = (ratios[Rounds/2-1] + ratios[Rounds/2]) / 2
		if d.Above >= Critical {
			d.Regression = true
			d.Reason = fmt.Sprintf("ns/op: %d of %d rounds above %+.0f%% (median %+.1f%%)",
				d.Above, Rounds, Threshold*100, (d.Median-1)*100)
		}
		if ba, ha := b.minAllocs(), h.minAllocs(); ha-ba >= 1 {
			d.Regression = true
			if d.Reason != "" {
				d.Reason += "; "
			}
			d.Reason += fmt.Sprintf("allocs/op (minimum over rounds) %.0f -> %.0f", ba, ha)
		}
		rep.Deltas = append(rep.Deltas, d)
	}
	for k := range head {
		if _, ok := base[k]; !ok {
			rep.NewKeys = append(rep.NewKeys, k)
		}
	}
	slices.Sort(rep.NewKeys)
	return rep, nil
}
