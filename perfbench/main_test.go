package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"runtime"
	"testing"
	"time"
)

// benchmarkJSON is the part of BENCHMARK.json the tests compare against.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

func tinyOptions(t *testing.T, workload string, trace bool, jobs int) options {
	return options{workload: workload, seed: 1, seconds: 0.1, trace: trace, jobs: jobs, workdir: t.TempDir(), tiny: true}
}

// TestEmitsExactlyTheDeclaredMetrics runs every workload at tiny scale,
// untraced and traced, and requires each to report exactly the metrics
// BENCHMARK.json names, with their units.
func TestEmitsExactlyTheDeclaredMetrics(t *testing.T) {
	b := loadBenchmarkJSON(t)
	want := map[bool]map[string]string{false: {}, true: {}}
	for _, m := range b.EndToEnd {
		want[false][m.Name] = m.Unit
	}
	for _, m := range b.PerLayer {
		want[true][m.Name] = m.Unit
	}
	if len(b.Workloads) == 0 {
		t.Fatal("BENCHMARK.json lists no workloads")
	}
	for _, w := range b.Workloads {
		for _, trace := range []bool{false, true} {
			out, err := run(tinyOptions(t, w.Name, trace, 0), io.Discard)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, trace, err)
			}
			if !out.Correct || out.Attempted < 1 {
				t.Fatalf("%s trace=%v: correct=%v attempted=%d", w.Name, trace, out.Correct, out.Attempted)
			}
			for name, unit := range want[trace] {
				got, ok := out.Metrics[name]
				if !ok {
					t.Errorf("%s trace=%v: metric %s missing", w.Name, trace, name)
				} else if got.Unit != unit {
					t.Errorf("%s trace=%v: metric %s has unit %q, BENCHMARK.json says %q", w.Name, trace, name, got.Unit, unit)
				}
			}
			for name := range out.Metrics {
				if _, ok := want[trace][name]; !ok {
					t.Errorf("%s trace=%v: metric %s is not named in BENCHMARK.json", w.Name, trace, name)
				}
			}
			if !trace {
				for _, name := range []string{"points_per_s", "setup_s", "sim_speedup_vs_ptb"} {
					if out.Metrics[name].Value <= 0 {
						t.Errorf("%s: %s = %v, want > 0", w.Name, name, out.Metrics[name].Value)
					}
				}
			}
		}
	}
}

// TestRecordsIndependentOfEvaluators requires the record digests and the
// sim metrics to be identical with one evaluator and with one per CPU.
func TestRecordsIndependentOfEvaluators(t *testing.T) {
	nproc := max(2, runtime.NumCPU())
	for _, name := range []string{"grid-cold", "search-warm"} {
		var digests []string
		var sims [][2]float64
		for _, jobs := range []int{1, nproc} {
			o := tinyOptions(t, name, false, jobs)
			b, err := newBench(name)
			if err != nil {
				t.Fatal(err)
			}
			e := &env{opt: o, jobs: jobs, dir: o.workdir}
			if err := b.setup(e); err != nil {
				t.Fatal(err)
			}
			ph, err := b.measure(e, nil)
			if err != nil {
				t.Fatalf("%s jobs=%d: %v", name, jobs, err)
			}
			b.close()
			out, err := run(o, io.Discard)
			if err != nil {
				t.Fatalf("%s jobs=%d: %v", name, jobs, err)
			}
			digests = append(digests, ph.digest)
			sims = append(sims, [2]float64{out.Metrics["sim_speedup_vs_ptb"].Value, out.Metrics["sim_energy_gain_vs_ptb"].Value})
		}
		if digests[0] == "" || digests[0] != digests[1] {
			t.Errorf("%s: records digest %q with 1 evaluator, %q with %d", name, digests[0], digests[1], nproc)
		}
		if sims[0] != sims[1] {
			t.Errorf("%s: sim metrics %v with 1 evaluator, %v with %d", name, sims[0], sims[1], nproc)
		}
	}
}

// TestTracedWalkMatchesServeRun requires the traced walker's records to be
// byte-identical to serve.Run's.
func TestTracedWalkMatchesServeRun(t *testing.T) {
	o := tinyOptions(t, "grid-cold", false, 0)
	e := &env{opt: o, jobs: 2, dir: o.workdir}
	g := &gridCold{}
	if err := g.setup(e); err != nil {
		t.Fatal(err)
	}
	plain, err := g.measure(e, nil)
	if err != nil {
		t.Fatal(err)
	}
	traced, err := g.measure(e, newTracer())
	if err != nil {
		t.Fatal(err)
	}
	if plain.digest != traced.digest {
		t.Fatalf("walker records %s, serve.Run records %s", traced.digest, plain.digest)
	}
}

func TestSelfTime(t *testing.T) {
	ms := int64(time.Millisecond)
	spans := []span{
		{ID: 1, Name: "parent", Start: 0, End: 10 * ms},
		{ID: 2, Parent: 1, Name: "a", Start: 1 * ms, End: 4 * ms},
		{ID: 3, Parent: 1, Name: "b", Start: 3 * ms, End: 6 * ms},  // overlaps a
		{ID: 4, Parent: 1, Name: "c", Start: 8 * ms, End: 12 * ms}, // runs past the parent
	}
	ix := indexSpans(spans)
	if got, want := ix.self(spans[0]), 3*time.Millisecond; got != want {
		t.Errorf("self = %v, want %v", got, want)
	}
	if got := ix.self(spans[1]); got != 3*time.Millisecond {
		t.Errorf("leaf self = %v, want its duration", got)
	}
}

// TestReferenceKernel requires the calibration kernel to compute what it
// was written to compute.
func TestReferenceKernel(t *testing.T) {
	if got := refKernel(); got != refKernelSum {
		t.Fatalf("refKernel() = %d, want %d", got, refKernelSum)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 2.5}, {1, 4}} {
		if got := quantile(xs, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := quantile([]float64{7, 7, 7}, 0.9); math.Abs(got-7) > 1e-12 {
		t.Errorf("quantile of a constant sample = %v, want 7", got)
	}
	// On a large sample the estimate converges to the plain order statistic.
	var big []float64
	for i := 0; i < 20000; i++ {
		big = append(big, float64((i*7919)%20000))
	}
	for _, q := range []float64{0.1, 0.5, 0.9} {
		if got, want := quantile(big, q), q*19999; math.Abs(got-want) > 2 {
			t.Errorf("quantile(%v) of 0..19999 = %v, want about %v", q, got, want)
		}
	}
	if quantile(nil, 0.5) != 0 {
		t.Error("quantile of an empty sample should be 0")
	}
}

// TestBetaInc compares the incomplete beta function with its closed forms.
func TestBetaInc(t *testing.T) {
	for _, x := range []float64{0.01, 0.2, 0.5, 0.77, 0.99} {
		for _, c := range []struct {
			a, b, want float64
		}{
			{1, 1, x},
			{3.5, 1, math.Pow(x, 3.5)},
			{1, 0.3, 1 - math.Pow(1-x, 0.3)},
			{0.5, 0.5, 2 / math.Pi * math.Asin(math.Sqrt(x))},
		} {
			if got := betaInc(x, c.a, c.b); math.Abs(got-c.want) > 1e-10 {
				t.Errorf("betaInc(%v, %v, %v) = %v, want %v", x, c.a, c.b, got, c.want)
			}
		}
	}
}
