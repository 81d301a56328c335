package hw

import (
	"math"
	"testing"

	"repro/internal/bundle"
	"repro/internal/spike"
	"repro/internal/tensor"
	"repro/internal/transformer"
)

func TestDefault28nmSane(t *testing.T) {
	tech := Default28nm()
	if tech.ClockHz != 500e6 {
		t.Fatalf("clock %v", tech.ClockHz)
	}
	if tech.CyclePeriod() != 2e-9 {
		t.Fatalf("period %v", tech.CyclePeriod())
	}
	if tech.DRAMBytesPerCycle() != 76.8e9/500e6 {
		t.Fatalf("bytes/cycle %v", tech.DRAMBytesPerCycle())
	}
	if tech.EMul8 <= tech.EAnd {
		t.Fatal("a multiplier must cost more than an AND gate")
	}
}

func TestSRAMEnergyMonotone(t *testing.T) {
	small := SRAMEnergyPerByte(SpikeGLBKB)
	big := SRAMEnergyPerByte(WeightGLBKB)
	if big <= small {
		t.Fatalf("larger SRAM must cost more per access: %v vs %v", big, small)
	}
	if SRAMEnergyPerByte(0.5) != SRAMEnergyPerByte(1) {
		t.Fatal("sub-1KB capacities must clamp")
	}
}

func TestResultAddAndParallel(t *testing.T) {
	a := Result{Cycles: 10, EPE: 1, DRAMBytes: 5}
	b := Result{Cycles: 20, EPE: 2, DRAMBytes: 7}
	sum := a
	sum.Add(b)
	if sum.Cycles != 30 || sum.EPE != 3 || sum.DRAMBytes != 12 {
		t.Fatalf("Add wrong: %+v", sum)
	}
	par := a
	par.Parallel(b)
	if par.Cycles != 20 || par.EPE != 3 {
		t.Fatalf("Parallel wrong: %+v", par)
	}
}

func TestResultConversions(t *testing.T) {
	tech := Default28nm()
	r := Result{Cycles: 500e6} // one second of cycles
	if math.Abs(r.LatencySec(tech)-1) > 1e-9 {
		t.Fatalf("latency %v", r.LatencySec(tech))
	}
	r.EPE = 1e9 // 1 mJ in pJ... (1e9 pJ = 1 mJ)
	if math.Abs(r.EnergyMJ()-1) > 1e-12 {
		t.Fatalf("energy %v", r.EnergyMJ())
	}
	if r.EDP(tech) != r.EnergyPJ()*r.LatencySec(tech) {
		t.Fatal("EDP identity")
	}
}

func TestChargeStaticAndDRAM(t *testing.T) {
	tech := Default28nm()
	r := Result{Cycles: int64(tech.ClockHz)} // 1 s
	r.ChargeStatic(tech, 1.0)                // 1 W peak
	want := tech.StaticFrac * 1e12
	if math.Abs(r.EStatic-want) > 1 {
		t.Fatalf("static %v want %v", r.EStatic, want)
	}
	r2 := Result{Cycles: int64(tech.ClockHz)}
	r2.ChargeDRAMBackground(tech)
	if math.Abs(r2.EStatic-tech.PDRAM*1e12) > 1 {
		t.Fatalf("dram bg %v", r2.EStatic)
	}
}

func TestCeilDiv(t *testing.T) {
	if CeilDiv(10, 3) != 4 || CeilDiv(9, 3) != 3 || CeilDiv(0, 5) != 0 {
		t.Fatal("CeilDiv broken")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on zero divisor")
		}
	}()
	CeilDiv(1, 0)
}

func TestBishopBreakdownMatchesPaper(t *testing.T) {
	var pw, ar float64
	for _, m := range BishopBreakdown() {
		pw += m.PowerMW
		ar += m.AreaMM2
	}
	// §6.6: modules sum to ~627 mW and ~2.945 mm² of the 2.96 mm² die.
	if math.Abs(pw-627.21) > 1 {
		t.Fatalf("power sum %v", pw)
	}
	if math.Abs(ar-2.945) > 0.01 {
		t.Fatalf("area sum %v", ar)
	}
	if PowerOf("TTB dense core") != 246.1e-3 {
		t.Fatalf("PowerOf dense %v", PowerOf("TTB dense core"))
	}
	if PowerOf("nope") != BishopTotalPowerMW*1e-3 {
		t.Fatal("unknown module must fall back to total")
	}
}

func randSpikes(seed uint64, T, N, D int, p float64) *spike.Tensor {
	rng := tensor.NewRNG(seed)
	s := spike.NewTensor(T, N, D)
	for t := 0; t < T; t++ {
		for n := 0; n < N; n++ {
			for d := 0; d < D; d++ {
				if rng.Float64() < p {
					s.Set(t, n, d, true)
				}
			}
		}
	}
	return s
}

func TestLinearStatsConservation(t *testing.T) {
	in := randSpikes(1, 8, 16, 32, 0.2)
	st := NewLinearStats(in, 64, bundle.Shape{BSt: 4, BSn: 2})
	var act, features int
	for _, r := range st.Runs {
		act += int(r.Active) * int(r.Features)
		features += int(r.Features)
	}
	if st.TotalSpikes != in.Count() {
		t.Fatalf("spike conservation: %d vs %d", st.TotalSpikes, in.Count())
	}
	if act != st.ActiveBundles || features != st.DIn {
		t.Fatalf("bundle or feature conservation")
	}
	if st.B != 2*8 {
		t.Fatalf("bundle rows %d", st.B)
	}
}

// TestLinearStatsSplitConserves checks each side of a split, not only their
// sum, against the per-feature spike and active-bundle counts of the
// bundle tags over the features Alg. 1 routes to that side, each by its
// own count: at a fixed θ_s of 0, and at split targets 0, 0.5 and 1.
func TestLinearStatsSplitConserves(t *testing.T) {
	in := randSpikes(2, 8, 16, 32, 0.15)
	sh := bundle.Shape{BSt: 4, BSn: 2}
	st := NewLinearStats(in, 64, sh)
	a := bundle.Tag(in, sh)
	spf, apf := make([]int, in.D), make([]int, in.D)
	for i, c := range bundle.Counts(in, sh) { // tag of bundle i/D, feature i%D
		spf[i%in.D] += c
		if c > 0 {
			apf[i%in.D]++
		}
	}
	check := func(what string, side LinearStats, idx []int) {
		t.Helper()
		var spikes, bundles int
		perCount := map[uint32]uint32{}
		for _, d := range idx {
			spikes += spf[d]
			bundles += apf[d]
			perCount[uint32(apf[d])]++
		}
		if side.TotalSpikes != spikes || side.ActiveBundles != bundles || side.DIn != len(idx) {
			t.Fatalf("%s: spikes %d bundles %d features %d, want %d %d %d", what,
				side.TotalSpikes, side.ActiveBundles, side.DIn, spikes, bundles, len(idx))
		}
		if len(side.Runs) != len(perCount) {
			t.Fatalf("%s: %d runs for %d distinct counts", what, len(side.Runs), len(perCount))
		}
		for i, r := range side.Runs {
			if perCount[r.Active] != r.Features || (i > 0 && side.Runs[i-1].Active >= r.Active) {
				t.Fatalf("%s: run %+v, want %d features, ascending", what, r, perCount[r.Active])
			}
		}
		if side.DOut != st.DOut || side.B != st.B {
			t.Fatalf("%s: split must preserve DOut and B", what)
		}
	}
	cases := []struct {
		name string
		res  bundle.StratifyResult
	}{
		{"theta 0", bundle.Stratify(a, 0)},
		{"target 0", bundle.StratifyForSplit(a, 0)},
		{"target 0.5", bundle.StratifyForSplit(a, 0.5)},
		{"target 1", bundle.StratifyForSplit(a, 1)},
	}
	for _, c := range cases {
		var dense, sparse []int
		for f, act := range apf {
			if act > c.res.Theta {
				dense = append(dense, f)
			} else {
				sparse = append(sparse, f)
			}
		}
		d, s := st.Split(c.res)
		check(c.name+" dense", d, dense)
		check(c.name+" sparse", s, sparse)
		if c.res.DenseFeatures != d.DIn || c.res.DenseSpikes != d.TotalSpikes || c.res.DenseBundles != d.ActiveBundles ||
			c.res.SparseFeatures != s.DIn || c.res.SparseSpikes != s.TotalSpikes || c.res.SparseBundles != s.ActiveBundles {
			t.Fatalf("%s: stratification %+v disagrees with the split", c.name, c.res)
		}
		if d.TotalSpikes+s.TotalSpikes != st.TotalSpikes || d.DIn+s.DIn != st.DIn {
			t.Fatalf("%s: split loses spikes or features", c.name)
		}
	}
}

func TestLinearStatsTrafficPositive(t *testing.T) {
	in := randSpikes(3, 4, 8, 16, 0.1)
	st := NewLinearStats(in, 32, bundle.DefaultShape)
	if st.WeightDRAMBytes() != 16*32 {
		t.Fatalf("weight bytes %d", st.WeightDRAMBytes())
	}
	if st.ActivationDRAMBytes() <= 0 || st.OutputDRAMBytes() <= 0 {
		t.Fatal("traffic must be positive")
	}
}

func TestAttnStatsMasks(t *testing.T) {
	q := randSpikes(4, 4, 8, 16, 0.2)
	k := randSpikes(5, 4, 8, 16, 0.2)
	v := randSpikes(6, 4, 8, 16, 0.2)
	keepHalf := make([][]bool, 4)
	for tt := range keepHalf {
		keepHalf[tt] = make([]bool, 8)
		for n := 0; n < 4; n++ {
			keepHalf[tt][n] = true
		}
	}
	l := transformer.TraceLayer{Q: q, K: k, V: v, Heads: 4, QKeep: keepHalf}
	st := NewAttnStats(l, bundle.Shape{BSt: 2, BSn: 2})
	if st.QTokensKept != 4*4 {
		t.Fatalf("QTokensKept %d want half of 4x8", st.QTokensKept)
	}
	if st.KTokensKept != 4*8 {
		t.Fatalf("KTokensKept %d want all of 4x8", st.KTokensKept)
	}
	qb, kb, vb := st.QKVBits()
	if qb != int64(st.QTokensKept)*16 || kb != vb {
		t.Fatalf("bits %d %d %d", qb, kb, vb)
	}
	// Half the tokens kept → half the bundle rows (mask is row-aligned).
	if st.QBundleRows != st.KBundleRows/2*1 && st.QBundleRows >= st.KBundleRows {
		t.Fatalf("bundle rows %d vs %d", st.QBundleRows, st.KBundleRows)
	}
}

func TestReportGroupTotals(t *testing.T) {
	rep := &Report{Tech: Default28nm()}
	rep.Layers = []LayerReport{
		{Group: "P1", Result: Result{Cycles: 10}},
		{Group: "ATN", Result: Result{Cycles: 20}},
		{Group: "P1", Result: Result{Cycles: 5}},
	}
	order, totals := rep.GroupTotals()
	if len(order) != 2 || order[0] != "P1" {
		t.Fatalf("order %v", order)
	}
	if totals["P1"].Cycles != 15 || totals["ATN"].Cycles != 20 {
		t.Fatalf("totals %+v", totals)
	}
	if rep.AttentionTotal().Cycles != 20 {
		t.Fatal("attention total")
	}
}

// TestPrunedAttnStatsMatchesMasks checks the mask-free attention statistics
// against NewAttnStats of the layer carrying the masks ECP's Prune returns,
// with ECP bundling under the simulator's shape and under coarser and finer
// ones, on a token grid no shape divides evenly.
func TestPrunedAttnStatsMatchesMasks(t *testing.T) {
	q := randSpikes(7, 7, 10, 48, 0.05)
	k := randSpikes(8, 7, 10, 48, 0.07)
	shapes := []bundle.Shape{{BSt: 4, BSn: 2}, {BSt: 2, BSn: 2}, {BSt: 1, BSn: 2}, {BSt: 4, BSn: 4}, {BSt: 3, BSn: 3}}
	for _, ecpSh := range shapes {
		var b bundle.ActivityBuilder
		qr, kr := b.Rows(q, ecpSh), b.Rows(k, ecpSh)
		for _, simSh := range shapes {
			for _, theta := range []int{0, 2, 6} {
				c := bundle.ECPConfig{Shape: ecpSh, ThetaQ: theta, ThetaK: theta + 1}
				l := transformer.TraceLayer{Q: q, K: k, V: q, Heads: 4}
				got := NewPrunedAttnStats(l, simSh, c, qr, kr)
				l.QKeep, l.KKeep, _ = c.Prune(q, k)
				if want := NewAttnStats(l, simSh); got != want {
					t.Fatalf("ECP %+v on %+v, θ=%d: %+v, want %+v", ecpSh, simSh, theta, got, want)
				}
			}
		}
	}
}
