package accel

import (
	"reflect"
	"testing"

	"repro/internal/bundle"
)

// simulatorOptionSets covers the three structurally distinct layer paths:
// stratified (balancing and explicit θ), homogeneous dense, and ECP-pruned
// attention.
func simulatorOptionSets() map[string]Options {
	ecp := DefaultOptions()
	ecp.ECP = &bundle.ECPConfig{Shape: bundle.DefaultShape, ThetaQ: 2, ThetaK: 2}
	explicit := DefaultOptions()
	explicit.ThetaS = 3
	homogeneous := DefaultOptions()
	homogeneous.Stratify = false
	return map[string]Options{
		"default":     DefaultOptions(),
		"explicitθ":   explicit,
		"homogeneous": homogeneous,
		"ecp":         ecp,
	}
}

// TestSimulatorMatchesSimulate pins that the pooled package-level Simulate
// carries nothing from one option set to the next: called back to back on
// one goroutine, each call reuses the Simulator (and the scratch) the
// previous option set left in the pool, yet every report equals a fresh
// Simulator's.
func TestSimulatorMatchesSimulate(t *testing.T) {
	traces := []int{1, 4}
	for name, opt := range simulatorOptionSets() {
		t.Run(name, func(t *testing.T) {
			for _, model := range traces {
				tr := trace(model, model == 1, uint64(model))
				want := NewSimulator(opt).Simulate(tr)
				got := Simulate(tr, opt)
				if !reflect.DeepEqual(got.Total, want.Total) {
					t.Fatalf("model %d: Simulate total %+v != Simulator total %+v",
						model, got.Total, want.Total)
				}
				if !reflect.DeepEqual(got.Layers, want.Layers) {
					for i := range got.Layers {
						if !reflect.DeepEqual(got.Layers[i], want.Layers[i]) {
							t.Fatalf("model %d layer %d (%s): %+v != %+v",
								model, i, want.Layers[i].Name, got.Layers[i], want.Layers[i])
						}
					}
					t.Fatalf("model %d: layer sets differ", model)
				}
			}
		})
	}
}

// TestSimulatorZeroAllocSteadyState pins the tentpole contract: after one
// warm-up call sizes every scratch buffer, repeated simulations of
// same-shape traces perform zero heap allocations — including the
// stratifier, the split statistics, and the ECP pruning path.
func TestSimulatorZeroAllocSteadyState(t *testing.T) {
	for name, opt := range simulatorOptionSets() {
		t.Run(name, func(t *testing.T) {
			tr := trace(4, false, 7)
			sim := NewSimulator(opt)
			sim.Simulate(tr) // warm the scratch
			if allocs := testing.AllocsPerRun(10, func() {
				sim.Simulate(tr)
			}); allocs != 0 {
				t.Fatalf("Simulator.Simulate steady state allocates %.1f objects/run, want 0", allocs)
			}
		})
	}
}

// TestSimulatorReportReuse pins the ownership contract: the report returned
// by one call is overwritten by the next, so callers that need to keep
// results across calls must copy them out.
func TestSimulatorReportReuse(t *testing.T) {
	sim := NewSimulator(DefaultOptions())
	a := sim.Simulate(trace(1, false, 1))
	aTotal := a.Total
	b := sim.Simulate(trace(4, false, 2))
	if a != b {
		t.Fatal("Simulator must reuse its report across calls")
	}
	if reflect.DeepEqual(aTotal, b.Total) {
		t.Fatal("second simulation did not overwrite the report")
	}
}

// BenchmarkSimulatorSteadyState gates the zero-alloc walk in `make
// bench-gate`: the full Bishop layer loop on a Model 4 trace with reused
// scratch.
func BenchmarkSimulatorSteadyState(b *testing.B) {
	tr := trace(4, false, 7)
	sim := NewSimulator(DefaultOptions())
	sim.Simulate(tr)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim.Simulate(tr)
	}
}
