package workload

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/bundle"
	"repro/internal/spike"
	"repro/internal/tensor"
	"repro/internal/transformer"
)

// refGenerate is Generate as it was written before its draws were compared
// as integers: a Float64 per decision and a checked Set per spike. It is the
// oracle Generate must match bit for bit, RNG state included.
func refGenerate(rng *tensor.RNG, T, N, D int, p Params) *spike.Tensor {
	p.clamp()
	sh := p.Shape
	s := spike.NewTensor(T, N, D)
	nbt := (T + sh.BSt - 1) / sh.BSt
	nbn := (N + sh.BSn - 1) / sh.BSn

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

// checkAgainstRef generates one tensor with Generate and with refGenerate
// from equal seeds and reports a difference in the words or in the RNG
// state left behind.
func checkAgainstRef(seed uint64, T, N, D int, p Params) error {
	rg, rr := tensor.NewRNG(seed), tensor.NewRNG(seed)
	got, want := Generate(rg, T, N, D, p), refGenerate(rr, T, N, D, p)
	if !slices.Equal(got.Words(), want.Words()) {
		return fmt.Errorf("%dx%dx%d %+v: words differ (%d spikes, want %d)", T, N, D, p, got.Count(), want.Count())
	}
	if g, w := rg.Uint64(), rr.Uint64(); g != w {
		return fmt.Errorf("%dx%dx%d %+v: next draw %#x, want %#x", T, N, D, p, g, w)
	}
	return nil
}

// TestGenerateMatchesReference pins Generate to refGenerate over every
// scenario (with and without BSA, with the Q and K row skew), the standard
// bundle shapes plus non-nesting and over-64-slot ones, ragged tensor
// sizes, and parameters at their extremes.
func TestGenerateMatchesReference(t *testing.T) {
	shapes := []bundle.Shape{{BSt: 1, BSn: 2}, {BSt: 2, BSn: 2}, {BSt: 4, BSn: 2}, {BSt: 4, BSn: 4},
		{BSt: 3, BSn: 5}, {BSt: 3, BSn: 30}, {BSt: 1, BSn: 70}}
	dims := [][3]int{{8, 16, 128}, {5, 13, 70}, {7, 75, 129}, {1, 1, 1}}
	seed := uint64(1)
	for _, sc := range Scenarios() {
		for _, bsa := range []bool{false, true} {
			density, bd, zf := sc.Density, sc.BundleDensity, sc.ZeroFrac
			if bsa {
				density, bd, zf = sc.DensityBSA, sc.BundleDensityBSA, sc.ZeroFracBSA
			}
			for _, sh := range shapes {
				proj := Fit(sh, density, bd, zf)
				for _, p := range []Params{proj, proj.WithRowSkew(sc.QRowHot, 0.15), proj.WithRowSkew(sc.KRowHot, 0.15)} {
					for _, dm := range dims {
						seed++
						if err := checkAgainstRef(seed, dm[0], dm[1], dm[2], p); err != nil {
							t.Errorf("model %d bsa %v: %v", sc.Model, bsa, err)
						}
					}
				}
			}
		}
	}
	base := Params{Shape: bundle.DefaultShape, ZeroFrac: 0.1, HotFrac: 0.3,
		HotProb: 0.5, ColdProb: 0.2, InBundle: 0.4, RowHot: 0.5, RowScale: 0.3}
	extremes := map[string]func(*Params){
		"all zero": func(p *Params) { *p = Params{Shape: p.Shape} },
		"all one": func(p *Params) {
			*p = Params{Shape: p.Shape, ZeroFrac: 1, HotFrac: 1, HotProb: 1, ColdProb: 1, InBundle: 1, RowHot: 1, RowScale: 1}
		},
		"no silent":       func(p *Params) { p.ZeroFrac = 0 },
		"all hot":         func(p *Params) { p.HotFrac = 1 },
		"hot prob 0":      func(p *Params) { p.HotProb = 0 },
		"cold prob 0":     func(p *Params) { p.ColdProb = 0 },
		"cold prob 1":     func(p *Params) { p.ColdProb = 1 },
		"in-bundle 1":     func(p *Params) { p.InBundle = 1 },
		"in-bundle 0":     func(p *Params) { p.InBundle = 0 },
		"in-bundle tiny":  func(p *Params) { p.InBundle = 1e-3 },
		"row scale tiny":  func(p *Params) { p.RowScale = 1e-9 },
		"row scale 0":     func(p *Params) { p.RowScale = 0 },
		"rows all cold":   func(p *Params) { p.RowHot = 0 },
		"subnormal":       func(p *Params) { p.HotProb, p.InBundle = 5e-324, 1e-310 },
		"below one":       func(p *Params) { p.HotProb, p.InBundle = math.Nextafter(1, 0), math.Nextafter(1, 0) },
		"out of range":    func(p *Params) { p.HotProb, p.ColdProb, p.RowScale = 7, -2, math.Inf(1) },
		"negative zero":   func(p *Params) { p.HotProb = math.Copysign(0, -1) },
		"NaN probability": func(p *Params) { p.HotProb, p.ColdProb = math.NaN(), math.NaN() },
		"NaN elsewhere":   func(p *Params) { p.ZeroFrac, p.RowHot, p.InBundle = math.NaN(), math.NaN(), math.NaN() },
	}
	for name, set := range extremes {
		for _, sh := range shapes {
			p := base
			p.Shape = sh
			set(&p)
			for _, dm := range dims {
				seed++
				if err := checkAgainstRef(seed, dm[0], dm[1], dm[2], p); err != nil {
					t.Errorf("%s: %v", name, err)
				}
			}
		}
	}
}

// TestBelowMatchesFloatCompare pins below's threshold to the float compare
// it replaces, u = k/2^53 < p exactly when k < below(p), at the values a
// random generator test almost never draws: k on, just under and just over
// p·2^53, and p at its extremes.
func TestBelowMatchesFloatCompare(t *testing.T) {
	rng := tensor.NewRNG(11)
	ps := []float64{0, math.Copysign(0, -1), 5e-324, 1e-300, 0.5, math.Nextafter(1, 0), 1, 7, -3,
		math.Inf(1), math.Inf(-1), math.NaN()}
	for range 1000 {
		k := rng.Uint64() >> 11
		u := float64(k) / (1 << 53)
		for _, p := range append(ps, u, math.Nextafter(u, 0), math.Nextafter(u, 2)) {
			for _, k := range []uint64{k, 0, 1<<53 - 1} {
				if got, want := k < below(p), float64(k)/(1<<53) < p; got != want {
					t.Fatalf("k=%d p=%g: k < below(p) is %v, k/2^53 < p is %v", k, p, got, want)
				}
			}
		}
	}
}

// FuzzGenerateMatchesReference checks Generate against refGenerate on
// arbitrary sizes, shapes (up to 6x80, so over 64 slots) and parameters,
// NaN and out-of-range values included.
func FuzzGenerateMatchesReference(f *testing.F) {
	f.Add(uint64(1), uint8(7), uint8(40), uint8(100), uint8(3), uint8(1),
		0.1, 0.3, 0.5, 0.2, 0.4, 0.5, 0.15)
	f.Add(uint64(9), uint8(3), uint8(75), uint8(63), uint8(0), uint8(69),
		0.0, 1.0, 1.0, 0.0, 1e-3, 0.0, 1e-9)
	f.Fuzz(func(t *testing.T, seed uint64, tt, nn, dd, bst, bsn uint8,
		zero, hotFrac, hotProb, coldProb, inBundle, rowHot, rowScale float64) {
		p := Params{Shape: bundle.Shape{BSt: 1 + int(bst)%6, BSn: 1 + int(bsn)%80},
			ZeroFrac: zero, HotFrac: hotFrac, HotProb: hotProb, ColdProb: coldProb,
			InBundle: inBundle, RowHot: rowHot, RowScale: rowScale}
		if err := checkAgainstRef(seed, 1+int(tt)%12, 1+int(nn)%90, 1+int(dd), p); err != nil {
			t.Fatal(err)
		}
	})
}

func TestFitHitsTargetDensities(t *testing.T) {
	sh := bundle.Shape{BSt: 4, BSn: 2}
	cases := []struct{ density, bd, zf float64 }{
		{0.0634, 0.1116, 0.093}, // Fig. 6 without BSA
		{0.0275, 0.0522, 0.522}, // Fig. 6 with BSA
		{0.20, 0.32, 0.05},      // Model 3 (§6.4)
	}
	rng := tensor.NewRNG(1)
	for _, c := range cases {
		p := Fit(sh, c.density, c.bd, c.zf)
		s := Generate(rng, 8, 128, 384, p)
		tg := bundle.Tag(s, sh)
		if got := s.Density(); math.Abs(got-c.density) > 0.35*c.density+0.01 {
			t.Errorf("density got %.4f want %.4f", got, c.density)
		}
		if got := tg.BundleDensity(); math.Abs(got-c.bd) > 0.35*c.bd+0.01 {
			t.Errorf("bundle density got %.4f want %.4f", got, c.bd)
		}
		if got := tg.ZeroFeatureFraction(); math.Abs(got-c.zf) > 0.15 {
			t.Errorf("zero frac got %.3f want %.3f", got, c.zf)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	p := Fit(bundle.DefaultShape, 0.1, 0.2, 0.1)
	a := Generate(tensor.NewRNG(5), 4, 16, 32, p)
	b := Generate(tensor.NewRNG(5), 4, 16, 32, p)
	if !a.Equal(b) {
		t.Fatal("same seed must generate identical tensors")
	}
}

func TestRowSkewCreatesPrunableRows(t *testing.T) {
	// With strong row skew, ECP at a moderate threshold should keep roughly
	// the hot-row fraction; without skew it should keep almost everything.
	sh := bundle.Shape{BSt: 4, BSn: 2}
	base := Fit(sh, 0.15, 0.3, 0.05)
	rng := tensor.NewRNG(7)
	skewed := Generate(rng, 8, 64, 128, base.WithRowSkew(0.2, 0.1))
	uniform := Generate(rng, 8, 64, 128, base)

	theta := 10
	cfgE := bundle.ECPConfig{Shape: sh, ThetaQ: theta, ThetaK: theta}
	_, _, sSkew := cfgE.Prune(skewed, skewed)
	_, _, sUni := cfgE.Prune(uniform, uniform)
	if sSkew.QKeepFrac() >= sUni.QKeepFrac() {
		t.Fatalf("skewed keep %.3f should be below uniform keep %.3f",
			sSkew.QKeepFrac(), sUni.QKeepFrac())
	}
	if sSkew.QKeepFrac() < 0.05 || sSkew.QKeepFrac() > 0.5 {
		t.Fatalf("skewed keep %.3f outside plausible band", sSkew.QKeepFrac())
	}
}

func TestActiveBundleHasSpike(t *testing.T) {
	// The generator guarantees every activated bundle carries ≥1 spike even
	// at tiny in-bundle density.
	p := Params{Shape: bundle.DefaultShape, ZeroFrac: 0, HotFrac: 1,
		HotProb: 0.5, ColdProb: 0.5, InBundle: 0.001, RowHot: 1, RowScale: 1}
	s := Generate(tensor.NewRNG(9), 8, 16, 32, p)
	if s.Count() == 0 {
		t.Fatal("expected spikes from guaranteed placement")
	}
}

func TestScenariosCoverAllModels(t *testing.T) {
	sc := Scenarios()
	for i := 1; i <= 5; i++ {
		s, ok := sc[i]
		if !ok {
			t.Fatalf("missing scenario %d", i)
		}
		if s.DensityBSA >= s.Density {
			t.Fatalf("model %d: BSA must lower density (%.3f vs %.3f)", i, s.DensityBSA, s.Density)
		}
		if s.ZeroFracBSA <= s.ZeroFrac {
			t.Fatalf("model %d: BSA must raise zero-feature fraction", i)
		}
	}
}

func TestSyntheticTraceStructure(t *testing.T) {
	cfg := transformer.Model4 // smallest full model (2 blocks)
	tr := SyntheticTrace(cfg, Scenarios()[4], TraceOptions{}, 1)
	if len(tr.Layers) != cfg.Blocks*7 {
		t.Fatalf("layers %d want %d", len(tr.Layers), cfg.Blocks*7)
	}
	for _, l := range tr.Layers {
		switch l.Kind {
		case transformer.KindAttention:
			if l.Q == nil || l.K == nil || l.V == nil {
				t.Fatal("attention layer missing tensors")
			}
			if l.Q.T != cfg.T || l.Q.N != cfg.N || l.Q.D != cfg.D {
				t.Fatalf("Q shape %v", l.Q)
			}
		default:
			if l.In == nil || l.DIn == 0 || l.DOut == 0 {
				t.Fatalf("layer %s incomplete", l.Name)
			}
		}
	}
}

func TestSyntheticTraceBSAIsSparser(t *testing.T) {
	cfg := transformer.Model4
	sc := Scenarios()[4]
	base := SyntheticTrace(cfg, sc, TraceOptions{}, 3)
	bsa := SyntheticTrace(cfg, sc, TraceOptions{BSA: true}, 3)
	var dBase, dBSA float64
	for i := range base.Layers {
		if base.Layers[i].In != nil {
			dBase += base.Layers[i].In.Density()
			dBSA += bsa.Layers[i].In.Density()
		}
	}
	if dBSA >= dBase {
		t.Fatalf("BSA trace density %.4f must be below baseline %.4f", dBSA, dBase)
	}
}

func TestParamsClamp(t *testing.T) {
	p := Params{ZeroFrac: -1, HotFrac: 2, HotProb: 5, ColdProb: -0.5,
		InBundle: 1.5, RowHot: -3, RowScale: 9}
	p.clamp()
	for _, v := range []float64{p.ZeroFrac, p.HotFrac, p.HotProb, p.ColdProb, p.InBundle, p.RowHot, p.RowScale} {
		if v < 0 || v > 1 {
			t.Fatalf("clamp failed: %+v", p)
		}
	}
	// NaN is no probability: it clamps to 0, like a negative value.
	nan := math.NaN()
	p = Params{ZeroFrac: nan, HotFrac: nan, HotProb: nan, ColdProb: nan, InBundle: nan, RowHot: nan, RowScale: nan}
	p.clamp()
	if (p != Params{}) {
		t.Fatalf("NaN must clamp to 0: %+v", p)
	}
}
