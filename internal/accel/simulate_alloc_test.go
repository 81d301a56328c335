//go:build !race

// The race detector makes sync.Pool drop a random share of Puts, so the
// allocation pin below only holds in normal builds.

package accel

import "testing"

// TestSimulateAllocsSteadyState pins the pooled engine's cost: once the
// pooled Simulator's scratch is warm, Simulate allocates only the report it
// hands out and that report's layer slice.
func TestSimulateAllocsSteadyState(t *testing.T) {
	for name, opt := range simulatorOptionSets() {
		t.Run(name, func(t *testing.T) {
			tr := trace(4, false, 7)
			Simulate(tr, opt) // warm the pooled scratch
			if allocs := testing.AllocsPerRun(10, func() {
				Simulate(tr, opt)
			}); allocs > 2 {
				t.Fatalf("Simulate steady state allocates %.1f objects/run, want at most 2", allocs)
			}
		})
	}
}
