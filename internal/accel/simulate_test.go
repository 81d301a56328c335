package accel

import (
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"repro/internal/hw"
	"repro/internal/transformer"
)

func TestSimulateDeterministicAcrossGOMAXPROCS(t *testing.T) {
	tr := trace(2, false, 1)
	old := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(old)
	seq := Simulate(tr, DefaultOptions())
	runtime.GOMAXPROCS(8)
	par := Simulate(tr, DefaultOptions())
	if !reflect.DeepEqual(seq, par) {
		t.Fatal("GOMAXPROCS=8 report differs from GOMAXPROCS=1")
	}
}

// TestSimulateReportOwnership pins that Simulate hands out reports the
// caller owns: a later call, which reuses the same pooled Simulator, must
// neither return the same report nor touch the earlier one. The larger
// model goes first, so a shared layer buffer would be overwritten in place.
func TestSimulateReportOwnership(t *testing.T) {
	a := Simulate(trace(4, false, 2), DefaultOptions())
	want := *a
	want.Layers = append([]hw.LayerReport(nil), a.Layers...)
	b := Simulate(trace(1, false, 1), DefaultOptions())
	if a == b || &a.Layers[0] == &b.Layers[0] {
		t.Fatal("back-to-back Simulate calls share a report")
	}
	if !reflect.DeepEqual(*a, want) {
		t.Fatal("second Simulate call changed the first report")
	}
}

// TestSimulateConcurrent pins that pooled Simulators never leak state
// between callers: 8 goroutines interleave every option set on two models,
// and each report must equal a fresh Simulator's.
func TestSimulateConcurrent(t *testing.T) {
	type job struct {
		name  string
		opt   Options
		model int
		tr    *transformer.Trace
		want  *hw.Report
	}
	traces := map[int]*transformer.Trace{1: trace(1, true, 1), 4: trace(4, false, 4)}
	var jobs []job
	for name, opt := range simulatorOptionSets() {
		for _, model := range []int{1, 4} {
			tr := traces[model]
			jobs = append(jobs, job{name, opt, model, tr, NewSimulator(opt).Simulate(tr)})
		}
	}

	errs := make(chan error, 8*len(jobs))
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range jobs {
				j := jobs[(g+k)%len(jobs)]
				if got := Simulate(j.tr, j.opt); !reflect.DeepEqual(got, j.want) {
					errs <- fmt.Errorf("goroutine %d: %s on model %d differs from a fresh Simulator",
						g, j.name, j.model)
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
