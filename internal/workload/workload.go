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
	"math"

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

// clamp clamps the probabilities into [0,1]; NaN stays NaN.
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
//
// It makes one rng.Uint64 call per decision: a feature's tier, a bundle
// row's multiplier, a (bundle, feature) activation when the feature's
// probability is nonzero, one per slot of an active bundle, and two
// placement draws for an active bundle that drew no spike. Each draw is
// compared as the 53-bit integer k = Uint64()>>11 that Float64 divides by
// 2^53 (xorshift64*, Vigna, ACM TOMS 2016), against a threshold computed
// once per tier and row multiplier (below). That gives the same bits and
// the same final RNG state as comparing Float64 draws, which is what keeps
// trace digests and stored traces valid, without a float conversion per
// draw; an active bundle's slots are drawn into a mask without a branch.
func Generate(rng *tensor.RNG, T, N, D int, p Params) *spike.Tensor {
	p.clamp()
	sh := p.Shape
	s := spike.NewTensor(T, N, D)
	nbt := (T + sh.BSt - 1) / sh.BSt
	nbn := (N + sh.BSn - 1) / sh.BSn

	// Assign feature tiers. live lists the features that draw for every
	// bundle, as d<<1 | tier (hot 0, cold 1); a feature whose probability
	// is 0 draws nothing.
	prob := [2]float64{p.HotProb, p.ColdProb}
	zero, hot := below(p.ZeroFrac), below(p.ZeroFrac+(1-p.ZeroFrac)*p.HotFrac)
	live := make([]uint32, 0, D)
	for d := range D {
		k := rng.Uint64() >> 11
		tier := 1
		switch {
		case k < zero:
			continue
		case k < hot:
			tier = 0
		}
		if prob[tier] != 0 {
			live = append(live, uint32(d<<1|tier))
		}
	}
	// Assign row multipliers: 0 is full activity, 1 is RowScale.
	rowHot := below(p.RowHot)
	rows := make([]uint8, nbt*nbn)
	for i := range rows {
		if rng.Uint64()>>11 >= rowHot {
			rows[i] = 1
		}
	}
	// A bundle is inactive when its draw u ≥ prob·rowMul, so a NaN
	// product (clamp keeps NaN) activates every bundle.
	var active [2][2]uint64
	for r, mul := range [2]float64{1, p.RowScale} {
		for tier, pr := range prob {
			if x := pr * mul; math.IsNaN(x) {
				active[r][tier] = 1 << 53
			} else {
				active[r][tier] = below(x)
			}
		}
	}
	in := below(p.InBundle)

	for bt := 0; bt < nbt; bt++ {
		t0 := bt * sh.BSt
		t1 := min(t0+sh.BSt, T)
		for bn := 0; bn < nbn; bn++ {
			n0 := bn * sh.BSn
			fillBundles(rng, s, live, &active[rows[bt*nbn+bn]], in, t0, t1, n0, min(n0+sh.BSn, N))
		}
	}
	return s
}

// fillBundles draws the bundles of block [t0,t1)×[n0,n1), one per live
// feature: each is active when its draw is under the feature's tier
// threshold in thr, and an active bundle's slots fire at InBundle density
// (threshold in), at least one of them.
func fillBundles(rng *tensor.RNG, s *spike.Tensor, live []uint32, thr *[2]uint64, in uint64, t0, t1, n0, n1 int) {
	w := n1 - n0
	slots := (t1 - t0) * w
	for _, e := range live {
		if rng.Uint64()>>11 >= thr[e&1] {
			continue
		}
		d := int(e >> 1)
		if slots > 64 {
			fillSlots(rng, s, t0, t1, n0, n1, d, in)
			continue
		}
		var m uint64
		for i := range slots {
			// k < in exactly when k-in wraps: k < 2^53, in ≤ 2^53.
			m |= (rng.Uint64()>>11 - in) >> 63 << i
		}
		if m == 0 {
			t := rng.Intn(t1 - t0)
			m = 1 << (t*w + rng.Intn(w))
		}
		s.SetBlock(t0, t1, n0, n1, d, m)
	}
}

// fillSlots fills the slots of an active bundle too large for one mask
// (over 64 slots) the plain way: one draw and one checked Set a slot, in
// (t, n) order, and the placement draws when no slot fired.
func fillSlots(rng *tensor.RNG, s *spike.Tensor, t0, t1, n0, n1, d int, in uint64) {
	placed := false
	for t := t0; t < t1; t++ {
		for n := n0; n < n1; n++ {
			if rng.Uint64()>>11 < in {
				s.Set(t, n, d, true)
				placed = true
			}
		}
	}
	if !placed {
		t := t0 + rng.Intn(t1-t0)
		s.Set(t, n0+rng.Intn(n1-n0), d, true)
	}
}

// below returns how many 53-bit draws k fall under p: a Float64 draw
// u = k/2^53 is under p exactly when k < below(p). p·2^53 is exact, so
// its ceiling is the first k at or above p. NaN gives 0, as u < NaN never
// holds.
func below(p float64) uint64 {
	switch {
	case p >= 1:
		return 1 << 53
	case p > 0:
		return uint64(math.Ceil(p * (1 << 53)))
	}
	return 0
}
