// Package workload generates synthetic spiking-transformer activation
// traces with controllable spatiotemporal statistics. The paper's hardware
// evaluation depends on the *activity statistics* of trained models —
// overall spike density, TTB-level bundle density, per-feature skew, and
// per-row Q/K activity — not on what the spikes encode. The generator
// reproduces those statistics (calibrated to the numbers the paper reports
// in Figs. 5–6 and §6.3–6.4), which lets the full-size Table 2 models drive
// the cycle-level simulators without a GPU training run. See DESIGN.md,
// "Substitutions".
package workload

import (
	"repro/internal/bundle"
	"repro/internal/spike"
	"repro/internal/tensor"
)

// Params controls the statistical structure of a generated spike tensor.
// Features fall into three tiers — silent, cold, and hot — reproducing the
// long-tailed per-feature activity of Fig. 5, and bundle rows are modulated
// so a minority of token-time rows carry most activity (what makes ECP
// effective, §6.3).
type Params struct {
	Shape bundle.Shape

	ZeroFrac float64 // fraction of features with no activity at all
	HotFrac  float64 // fraction of *active* features that are hot
	HotProb  float64 // bundle-activation probability for hot features
	ColdProb float64 // bundle-activation probability for cold features
	InBundle float64 // spike density inside an active bundle
	RowHot   float64 // fraction of bundle rows at full activity
	RowScale float64 // activity multiplier for the remaining (cold) rows
}

// Validate clamps probabilities into [0,1]; a convenience for sweeps.
func (p *Params) clamp() {
	c := func(v *float64) {
		if *v < 0 {
			*v = 0
		}
		if *v > 1 {
			*v = 1
		}
	}
	c(&p.ZeroFrac)
	c(&p.HotFrac)
	c(&p.HotProb)
	c(&p.ColdProb)
	c(&p.InBundle)
	c(&p.RowHot)
	c(&p.RowScale)
}

// Fit derives generator parameters hitting a target overall spike density
// and TTB bundle density, with the given zero-feature fraction and a fixed
// hot/cold skew. The identity used: bundleDensity ≈ (1-zeroFrac)·E[pb] and
// density ≈ bundleDensity·inBundle (exact when every active bundle carries
// inBundle·volume spikes on average).
func Fit(sh bundle.Shape, density, bundleDensity, zeroFrac float64) Params {
	const hotFrac, skew = 0.3, 6.0
	if bundleDensity <= 0 {
		bundleDensity = 1e-6
	}
	meanPb := bundleDensity / (1 - zeroFrac)
	cold := meanPb / (hotFrac*skew + (1 - hotFrac))
	in := density / bundleDensity
	p := Params{Shape: sh, ZeroFrac: zeroFrac, HotFrac: hotFrac,
		HotProb: cold * skew, ColdProb: cold, InBundle: in,
		RowHot: 1, RowScale: 1}
	p.clamp()
	return p
}

// WithRowSkew returns a copy of p whose bundle rows are modulated so that
// roughly rowHot of them carry full activity and the rest are scaled down —
// producing the heavy-tailed per-row n_ab distribution that ECP exploits.
func (p Params) WithRowSkew(rowHot, rowScale float64) Params {
	p.RowHot, p.RowScale = rowHot, rowScale
	p.clamp()
	return p
}

// Generate produces a T×N×D spike tensor with the configured statistics.
func Generate(rng *tensor.RNG, T, N, D int, p Params) *spike.Tensor {
	p.clamp()
	sh := p.Shape
	s := spike.NewTensor(T, N, D)
	nbt := (T + sh.BSt - 1) / sh.BSt
	nbn := (N + sh.BSn - 1) / sh.BSn

	// Assign feature tiers.
	probs := make([]float64, D)
	for d := 0; d < D; d++ {
		r := rng.Float64()
		switch {
		case r < p.ZeroFrac:
			probs[d] = 0
		case r < p.ZeroFrac+(1-p.ZeroFrac)*p.HotFrac:
			probs[d] = p.HotProb
		default:
			probs[d] = p.ColdProb
		}
	}
	// Assign row multipliers.
	rows := make([]float64, nbt*nbn)
	for i := range rows {
		if rng.Float64() < p.RowHot {
			rows[i] = 1
		} else {
			rows[i] = p.RowScale
		}
	}

	for bt := 0; bt < nbt; bt++ {
		for bn := 0; bn < nbn; bn++ {
			rowMul := rows[bt*nbn+bn]
			for d := 0; d < D; d++ {
				if probs[d] == 0 || rng.Float64() >= probs[d]*rowMul {
					continue
				}
				// Active bundle: fill slots at InBundle density,
				// guaranteeing at least one spike.
				placed := false
				for t := bt * sh.BSt; t < (bt+1)*sh.BSt && t < T; t++ {
					for n := bn * sh.BSn; n < (bn+1)*sh.BSn && n < N; n++ {
						if rng.Float64() < p.InBundle {
							s.Set(t, n, d, true)
							placed = true
						}
					}
				}
				if !placed {
					t := bt*sh.BSt + rng.Intn(min(sh.BSt, T-bt*sh.BSt))
					n := bn*sh.BSn + rng.Intn(min(sh.BSn, N-bn*sh.BSn))
					s.Set(t, n, d, true)
				}
			}
		}
	}
	return s
}
