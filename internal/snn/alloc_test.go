package snn

import (
	"testing"

	"repro/internal/spike"
	"repro/internal/tensor"
)

// TestForwardSpikesZeroAllocSteadyState pins the zero-alloc contract of the
// spike-driven GEMM: after one warm-up call sizes the pooled output
// matrices and index buffer, repeated forwards on same-shape inputs must
// not touch the heap. The bench inputs are the gated
// BenchmarkLinearForwardSpikes's, so its 0 allocs/op baseline is exact.
func TestForwardSpikesZeroAllocSteadyState(t *testing.T) {
	rng := tensor.NewRNG(21)
	biased := NewLinear("alloc.fs", 384, 384, true, rng)
	benchL, benchS := benchGEMMInputs()
	for _, tc := range []struct {
		name string
		l    *Linear
		s    *spike.Tensor
	}{
		{"bias", biased, randomSpikes(rng, 4, 196, 384, 0.12)},
		{"bench", benchL, benchS},
	} {
		tc.l.ForwardSpikes(tc.s) // warm the pools
		if allocs := testing.AllocsPerRun(10, func() {
			tc.l.ForwardSpikes(tc.s)
		}); allocs != 0 {
			t.Fatalf("%s: ForwardSpikes steady state allocates %.1f objects/run, want 0", tc.name, allocs)
		}
	}
}

// TestForwardSpikesPoolReshapes pins that the pool adapts when the input
// shape changes instead of returning stale-shaped matrices.
func TestForwardSpikesPoolReshapes(t *testing.T) {
	rng := tensor.NewRNG(22)
	l := NewLinear("alloc.rs", 64, 32, false, rng)
	big := l.ForwardSpikes(randomSpikes(rng, 3, 8, 64, 0.3))
	if len(big) != 3 || big[0].Rows != 8 || big[0].Cols != 32 {
		t.Fatalf("unexpected shape %dx%dx%d", len(big), big[0].Rows, big[0].Cols)
	}
	small := l.ForwardSpikes(randomSpikes(rng, 2, 5, 64, 0.3))
	if len(small) != 2 || small[0].Rows != 5 || small[0].Cols != 32 {
		t.Fatalf("unexpected reshaped %dx%dx%d", len(small), small[0].Rows, small[0].Cols)
	}
}
