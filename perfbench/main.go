// Command perfbench is the repository benchmark: it drives the sweep
// service end to end through its public entry points — serve.Run,
// serve.RunSearch, an in-process bishopd (serve.NewManager + serve.NewServer
// on httptest) and fleet.Run — on four workloads, checks every output, and
// prints the end-to-end metrics (or, with --trace 1, the per-layer metrics)
// as one JSON object on the last line of standard output.
//
// Run it from the repository root through the wrapper that builds it:
//
//	bash perfbench/run.sh --workload grid-cold --seed 1 --seconds 10 --trace 0
//
// Host metrics are wall-clock time and memory of this Go program; sim
// metrics are what the modelled Bishop hardware would take and repeat
// exactly. See perfbench/README.md for the metric map.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/workload"
)

// options are the command-line arguments.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	jobs     int // evaluators per sweep; 0 means min(2, CPUs)
	workdir  string
	tiny     bool // shrink every workload's input (the benchmark's own tests)
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// output is the last line of standard output.
type output struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// errCheck marks a failed output or self check: the run is wrong, not slow.
var errCheck = errors.New("check failed")

func isCheck(err error) bool { return errors.Is(err, errCheck) }

func checkf(format string, args ...any) error {
	return fmt.Errorf("%w: "+format, append([]any{errCheck}, args...)...)
}

// env is what a workload sees of the run.
type env struct {
	opt  options
	jobs int    // evaluators per sweep
	dir  string // the run's scratch directory
	n    int    // scratch directories handed out so far

	kernelSeconds []float64 // every reference-kernel time (calib.go)
	calibrated    time.Time // when the reference kernel last ran
}

// scratch returns a fresh directory under the run's scratch directory.
func (e *env) scratch(name string) (string, error) {
	e.n++
	d := filepath.Join(e.dir, fmt.Sprintf("%s-%d", name, e.n))
	if err := os.MkdirAll(d, 0o755); err != nil {
		return "", err
	}
	return d, nil
}

// rng is a seeded generator; each use draws from its own stream so adding a
// draw in one place does not shift another.
type rng struct{ r *rand.Rand }

func newRNG(seed, stream uint64) *rng {
	return &rng{r: rand.New(rand.NewSource(int64(seed*1_000_003 + stream)))}
}

func (g *rng) intn(n int) int { return g.r.Intn(n) }

// bench is one workload.
type bench interface {
	// setup prepares the untimed state the timed phase needs; it may be
	// called several times, each call replacing the previous state.
	setup(e *env) error
	// measure runs the timed phase for about e.opt.seconds. With a non-nil
	// tracer it records spans around the calls into each layer.
	measure(e *env, tr *tracer) (*phase, error)
	// close releases the state.
	close()
}

// setupReps is how many times a run sets up; setup_s is the median.
func setupReps(name string) int {
	if name == "fleet-merge" {
		return 1
	}
	return 3
}

func newBench(name string) (bench, error) {
	switch name {
	case "grid-cold":
		return &gridCold{}, nil
	case "search-warm":
		return &searchWarm{}, nil
	case "daemon-mixed":
		return &daemonMixed{}, nil
	case "fleet-merge":
		return &fleetMerge{}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want grid-cold, search-warm, daemon-mixed or fleet-merge)", name)
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "grid-cold, search-warm, daemon-mixed or fleet-merge")
	flag.Uint64Var(&o.seed, "seed", 1, "workload seed")
	flag.Float64Var(&o.seconds, "seconds", 10, "length of the measured phase")
	flag.IntVar(&trace, "trace", 0, "1 reports the per-layer metrics from a traced run")
	flag.StringVar(&o.workdir, "workdir", ".bench_build/work", "scratch directory")
	flag.Parse()
	o.trace = trace == 1
	out, err := run(o, os.Stdout)
	if out != nil {
		data, merr := json.Marshal(out)
		if merr != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", merr)
			os.Exit(1)
		}
		fmt.Println(string(data))
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// run executes one benchmark run. A failed check returns the output with
// correct=false together with the error.
func run(o options, log io.Writer) (*output, error) {
	b, err := newBench(o.workload)
	if err != nil {
		return nil, err
	}
	if o.seconds <= 0 {
		return nil, fmt.Errorf("--seconds must be positive")
	}
	e := &env{opt: o, jobs: o.jobs}
	if e.jobs <= 0 {
		e.jobs = min(2, runtime.NumCPU())
	}
	if err := os.MkdirAll(o.workdir, 0o755); err != nil {
		return nil, err
	}
	if e.dir, err = os.MkdirTemp(o.workdir, o.workload+"-"); err != nil {
		return nil, err
	}
	defer os.RemoveAll(e.dir)
	isolate()
	defer isolate()
	defer b.close()

	var setups []float64
	for i := 0; i < setupReps(o.workload); i++ {
		if err := e.calibrate(); err != nil {
			return failed(err)
		}
		t0 := time.Now()
		if err := b.setup(e); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	setupScale := e.recalibrate()
	plain, err := b.measure(e, nil)
	if err != nil {
		return failed(err)
	}
	if err := e.calibrate(); err != nil {
		return failed(err)
	}
	scale := e.scale()
	fmt.Fprintf(log, "%s seed %d: %s\n", o.workload, o.seed, plain.summary())
	fmt.Fprintf(log, "reference kernel: median %.2f ms over %d runs in the measured phase (%.2f ms at the reference speed): "+
		"timings scaled by %.4f, set-up by %.4f\n", median(e.kernelSeconds)*1e3, len(e.kernelSeconds), refKernelSeconds*1e3, scale, setupScale)

	sim := paperFigures()
	if r := plain.sim; r != nil && (r.speedup != sim.speedup || r.energyGain != sim.energyGain) {
		return failed(checkf("sim figures from the records (%v, %v) differ from dse.EvaluateAt's (%v, %v)",
			r.speedup, r.energyGain, sim.speedup, sim.energyGain))
	}
	out := &output{Correct: true, Attempted: plain.attempted, Failed: plain.failed}
	if !o.trace {
		out.Metrics = plain.endToEnd(median(setups)*setupScale, sim, scale)
		return out, nil
	}

	tr := newTracer()
	traced, err := b.measure(e, tr)
	if err != nil {
		return failed(err)
	}
	fmt.Fprintf(log, "%s seed %d traced: %s\n", o.workload, o.seed, traced.summary())
	if traced.digest != plain.digest {
		return failed(checkf("traced records digest %s differs from untraced %s", traced.digest, plain.digest))
	}
	spans := tr.rec.snapshot()
	path := filepath.Join(o.workdir, fmt.Sprintf("spans-%s-s%d.jsonl", o.workload, o.seed))
	if err := writeSpans(path, spans); err != nil {
		return nil, err
	}
	fmt.Fprintf(log, "%d spans written to %s\n", len(spans), path)
	bd := breakdown(sampleByModel(tr.simulated(), newRNG(o.seed, 7)))
	out.Metrics = perLayer(plain, traced, tr, indexSpans(spans), bd, sim)
	return out, nil
}

// failed turns a run error into the output: a failed check still prints a
// result, with correct=false; any other error prints none.
func failed(err error) (*output, error) {
	if isCheck(err) {
		return &output{Correct: false, Attempted: 1, Failed: 1, Metrics: map[string]metric{}}, err
	}
	return nil, err
}

// isolate resets the process-wide trace state every run starts from: an
// empty in-memory trace cache and no trace store. serve.Run never clears a
// trace directory it set, so a spec without trace_dir would otherwise
// inherit the previous one.
func isolate() {
	workload.ResetTraceCache()
	workload.SetTraceDir("")
}
