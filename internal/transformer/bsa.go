package transformer

import (
	"math"

	"repro/internal/bundle"
	"repro/internal/spike"
	"repro/internal/tensor"
)

// BSAConfig enables Bundle-Sparsity-Aware training (§4.1): the bundle-level
// sparsity loss L_bsp of Eq. 10 is added to the task loss with weight
// Lambda, and its gradient is injected at every regularized spike tensor
// (MLP/projection inputs and attention Q/K) during Backward.
type BSAConfig struct {
	Lambda float32
	Shape  bundle.Shape
	// Structured weights each position by 1/√(1+Z) of its bundle, pushing
	// nearly-empty bundles to extinction first. This is what converts
	// plain firing-rate regularization into *structured* TTB-level
	// sparsity (the Fig. 5 distribution reshaping); with Structured=false
	// the penalty reduces to the raw Eq. 10 spike count.
	Structured bool
}

// Penalty returns the L_bsp contribution of one spike tensor: the sum of
// bundle L0 tags (= the spike count, Eq. 9–10).
func (c BSAConfig) Penalty(s *spike.Tensor) float64 {
	return float64(s.Count())
}

// grad builds the per-step gradient matrices of λ·L_bsp w.r.t. the spike
// outputs of s. For the plain penalty the gradient is λ everywhere (each
// potential spike contributes 1 to the count through the surrogate); the
// structured variant scales positions by their bundle weight.
func (c BSAConfig) grad(s *spike.Tensor) []*tensor.Mat {
	sh := c.Shape
	if sh.BSt == 0 {
		sh = bundle.DefaultShape
	}
	var counts []int
	nbn := (s.N + sh.BSn - 1) / sh.BSn
	if c.Structured {
		counts = bundle.Counts(s, sh)
	}
	out := make([]*tensor.Mat, s.T)
	for t := 0; t < s.T; t++ {
		g := tensor.NewMat(s.N, s.D)
		for n := 0; n < s.N; n++ {
			row := g.Row(n)
			for d := 0; d < s.D; d++ {
				w := c.Lambda
				if c.Structured {
					z := counts[((t/sh.BSt)*nbn+n/sh.BSn)*s.D+d]
					w = c.Lambda / float32(math.Sqrt(float64(1+z)))
				}
				row[d] = w
			}
		}
		out[t] = g
	}
	return out
}

// addBSA injects the BSA gradient for tensor s into the per-step gradient
// accumulator grads (no-op when BSA is disabled).
func addBSA(cfg *BSAConfig, s *spike.Tensor, grads []*tensor.Mat) {
	if cfg == nil || cfg.Lambda == 0 {
		return
	}
	for t, g := range cfg.grad(s) {
		grads[t].AddInPlace(g)
	}
}

// TotalBSAPenalty returns L_bsp summed over every regularized tensor of the
// most recent forward pass (for loss reporting; the gradient is injected
// during Backward).
func (m *Model) TotalBSAPenalty() float64 {
	if m.BSA == nil {
		return 0
	}
	var sum float64
	for _, s := range m.AllSpikeTensors() {
		sum += m.BSA.Penalty(s)
	}
	return sum
}
