package experiments

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/accel"
	"repro/internal/backend"
	"repro/internal/bundle"
	"repro/internal/dse"
	"repro/internal/hw"
	"repro/internal/sched"
	"repro/internal/transformer"
	"repro/internal/workload"
)

// paperTheta returns the ECP pruning threshold used per model (§6.1: 10 for
// DVS-Gesture, 6 otherwise).
func paperTheta(model int) int {
	if model == 4 {
		return 10
	}
	return 6
}

// traceFor returns the full-size activation trace for Table 2 model m,
// memoized process-wide: every figure that needs (m, bsa, seed) shares one
// read-only trace instead of regenerating it.
func traceFor(m int, bsa bool, seed uint64) *transformer.Trace {
	cfg := transformer.ModelZoo()[m-1]
	return workload.CachedTrace(cfg, workload.Scenarios()[m], workload.TraceOptions{BSA: bsa}, seed)
}

// mustBackend returns the named backend in its default configuration; the
// figure drivers reference only builtin backend names, so failure is a
// programming error.
func mustBackend(name string) backend.Backend {
	b, err := backend.Default(name)
	if err != nil {
		panic(err)
	}
	return b
}

// variantsCache memoizes the Fig. 12/13 variant records per (model, seed):
// Fig12, Fig13, and Summary all consume the identical matrix, so one
// evaluation pass serves all three. Entries use the same singleflight shape
// as the workload trace cache; the shared records are read-only.
var variantsCache = struct {
	mu sync.Mutex
	m  map[[2]uint64]*variantsEntry
}{m: map[[2]uint64]*variantsEntry{}}

type variantsEntry struct {
	once sync.Once
	recs []dse.Record
}

// variants returns the five Fig. 12/13 accelerator variants for one model
// in order — GPU, PTB, Bishop, Bishop+BSA, Bishop+BSA+ECP — evaluating
// them concurrently on first request and memoizing the result.
func variants(m int, seed uint64) []dse.Record {
	key := [2]uint64{uint64(m), seed}
	variantsCache.mu.Lock()
	e, ok := variantsCache.m[key]
	if !ok {
		e = &variantsEntry{}
		variantsCache.m[key] = e
	}
	variantsCache.mu.Unlock()
	e.once.Do(func() { e.recs = simulateVariants(m, seed) })
	return e.recs
}

// variantPoints spells the five §6.2 accelerator variants of one model as
// design-space coordinates on the backend pipeline.
func variantPoints(m int) []dse.Point {
	optE := accel.DefaultOptions()
	theta := paperTheta(m)
	optE.ECP = &bundle.ECPConfig{Shape: optE.Shape, ThetaQ: theta, ThetaK: theta}
	return []dse.Point{
		{Model: m, Backend: mustBackend(backend.GPUName)},
		{Model: m, Backend: mustBackend(backend.PTBName)},
		{Model: m, Opt: accel.DefaultOptions()},
		{Model: m, BSA: true, Opt: accel.DefaultOptions()},
		{Model: m, BSA: true, Opt: optE},
	}
}

// simulateVariants evaluates the variant matrix through the DSE engine —
// the same backend pipeline cmd/dse sweeps — so the §6.2 comparison figures
// are thin queries over cross-backend records.
func simulateVariants(m int, seed uint64) []dse.Record {
	rs, err := dse.Sweep(context.Background(), variantPoints(m), dse.Config{Seed: seed})
	if err != nil {
		panic(err) // in-memory sweeps fail only on a worker panic
	}
	if !rs.Complete() {
		panic("experiments: incomplete variant sweep")
	}
	return rs.Records
}

// allVariants evaluates variants for models 1–5 concurrently, returning
// records indexed by model-1.
func allVariants(seed uint64) [][]dse.Record {
	return mustCollect(5, func(i int) []dse.Record { return variants(i+1, seed) })
}

// mustCollect fans fn out across the worker pool with results in index
// order; a worker panic is re-raised in the caller.
func mustCollect[T any](n int, fn func(int) T) []T {
	out, err := sched.Collect(context.Background(), n, 0,
		func(i int) (T, error) { return fn(i), nil })
	if err != nil {
		panic(err)
	}
	return out
}

// mustDo runs heterogeneous tasks concurrently; a worker panic is re-raised
// in the caller.
func mustDo(tasks ...func()) {
	wrapped := make([]func() error, len(tasks))
	for i, task := range tasks {
		wrapped[i] = func() error { task(); return nil }
	}
	if err := sched.Do(context.Background(), 0, wrapped...); err != nil {
		panic(err)
	}
}

// Table2 reproduces the model-architecture table.
func Table2() *Table {
	t := &Table{ID: "table2", Title: "Spiking transformer architectures (Table 2)",
		Header: []string{"Model", "Dataset-class", "Blocks", "T", "N", "D", "Heads", "Params(M)"}}
	for i, cfg := range transformer.ModelZoo() {
		m := transformer.NewModel(cfg, 1)
		t.AddRow(fmt.Sprintf("Model %d", i+1), cfg.Name, fmt.Sprint(cfg.Blocks),
			fmt.Sprint(cfg.T), fmt.Sprint(cfg.N), fmt.Sprint(cfg.D),
			fmt.Sprint(cfg.Heads), f2(float64(m.NumParams())/1e6))
	}
	return t
}

// Fig6 reproduces the stratification/BSA density quadrants of Fig. 6 on the
// Model 1 output-projection workload.
func Fig6(seed uint64) *Table {
	t := &Table{ID: "fig6", Title: "Spiking activity at the output projection, ±BSA, ±stratification (Fig. 6)",
		Header: []string{"Workload", "Density", "TTB-density"}}
	sh := bundle.DefaultShape
	for _, withBSA := range []bool{false, true} {
		tr := traceFor(1, withBSA, seed)
		var in = tr.ByGroup("P2")[2].In // a mid-network output projection
		tg := bundle.Tag(in, sh)
		res := bundle.StratifyForSplit(tg, 0.5)
		label := "w/o BSA"
		if withBSA {
			label = "with BSA"
		}
		t.AddRow(label+" (whole)", pct(in.Density()), pct(tg.BundleDensity()))
		// Partition densities: spikes per partition over partition volume.
		denseVol := float64(len(res.Dense) * in.T * in.N)
		sparseVol := float64(len(res.Sparse) * in.T * in.N)
		t.AddRow(label+" (stratified down/dense)", pct(float64(res.DenseSpikes)/denseVol), pct(res.DenseDensity()))
		t.AddRow(label+" (stratified up/sparse)", pct(float64(res.SparseSpikes)/sparseVol), pct(res.SparseDensity()))
	}
	t.Note("paper: w/o BSA 6.34%% density / 11.16%% TTB; with BSA 2.75%% / 5.22%%")
	return t
}

// Fig11 reproduces the layer-wise normalized latency and energy comparison
// of Bishop vs PTB for one of Models 1–4, running both accelerators through
// the backend interface. Values are normalized by Bishop's first-block P1
// latency/energy, as in the paper.
func Fig11(model int, seed uint64) *Table {
	tr := traceFor(model, false, seed)
	var b, p *hw.Report
	mustDo(
		func() { b = mustBackend(backend.BishopName).Simulate(tr) },
		func() { p = mustBackend(backend.PTBName).Simulate(tr) })

	t := &Table{ID: "fig11", Title: fmt.Sprintf("Layer-wise normalized latency/energy, Model %d (Fig. 11)", model),
		Header: []string{"Block", "Layer", "PTB-lat", "Bishop-lat", "PTB-en", "Bishop-en"}}

	// Group Bishop/PTB layers into the paper's P1/ATN/P2/MLP slots per block.
	type slot struct{ bLat, bEn, pLat, pEn float64 }
	cfg := transformer.ModelZoo()[model-1]
	slots := make(map[string]*slot)
	order := []string{}
	key := func(blk int, grp string) string { return fmt.Sprintf("%d/%s", blk, grp) }
	for blk := 0; blk < cfg.Blocks; blk++ {
		for _, grp := range []string{"P1", "ATN", "P2", "MLP"} {
			k := key(blk, grp)
			slots[k] = &slot{}
			order = append(order, k)
		}
	}
	tech := b.Tech
	for _, l := range b.Layers {
		s := slots[key(l.Block, l.Group)]
		s.bLat += l.Result.LatencyMS(tech)
		s.bEn += l.Result.EnergyMJ()
	}
	for _, l := range p.Layers {
		s := slots[key(l.Block, l.Group)]
		s.pLat += l.Result.LatencyMS(tech)
		s.pEn += l.Result.EnergyMJ()
	}
	norm := slots[key(0, "P1")]
	for _, k := range order {
		s := slots[k]
		var blk int
		var grp string
		fmt.Sscanf(k, "%d/%s", &blk, &grp)
		t.AddRow(fmt.Sprint(blk+1), grp,
			f2(s.pLat/norm.bLat), f2(s.bLat/norm.bLat),
			f2(s.pEn/norm.bEn), f2(s.bEn/norm.bEn))
	}
	t.Note("normalized by Bishop block-1 P1, as in the paper")
	return t
}

// Fig12 reproduces the end-to-end normalized latency comparison across all
// five models and five accelerator variants.
func Fig12(seed uint64) *Table {
	t := &Table{ID: "fig12", Title: "End-to-end latency: speedup over edge GPU (Fig. 12)",
		Header: []string{"Model", "GPU(ms)", "PTB", "Bishop", "+BSA", "+BSA+ECP"}}
	for m, r := range allVariants(seed) {
		m++
		gms := r[0].LatencyMS
		t.AddRow(fmt.Sprintf("Model %d", m), f2(gms),
			x(gms/r[1].LatencyMS), x(gms/r[2].LatencyMS),
			x(gms/r[3].LatencyMS), x(gms/r[4].LatencyMS))
	}
	t.Note("paper speedups over GPU: Bishop 156-318x, +BSA 194-389x, +BSA+ECP 203-475x")
	return t
}

// Fig13 reproduces the end-to-end normalized energy comparison.
func Fig13(seed uint64) *Table {
	t := &Table{ID: "fig13", Title: "End-to-end energy: reduction over edge GPU (Fig. 13)",
		Header: []string{"Model", "GPU(mJ)", "PTB", "Bishop", "+BSA", "+BSA+ECP"}}
	for m, r := range allVariants(seed) {
		m++
		gmj := r[0].EnergyMJ
		t.AddRow(fmt.Sprintf("Model %d", m), f2(gmj),
			x(gmj/r[1].EnergyMJ), x(gmj/r[2].EnergyMJ),
			x(gmj/r[3].EnergyMJ), x(gmj/r[4].EnergyMJ))
	}
	return t
}

// Summary reproduces the §6.2 headline averages: Bishop's speedup and
// energy-efficiency gain over PTB and the edge GPU.
func Summary(seed uint64) *Table {
	t := &Table{ID: "summary", Title: "Headline averages (§6.2)",
		Header: []string{"Comparison", "Speedup", "Energy-efficiency"}}
	var spPTB, enPTB, spGPU float64
	for _, r := range allVariants(seed) {
		full := r[4] // Bishop+BSA+ECP
		spPTB += r[1].LatencyMS / full.LatencyMS
		enPTB += r[1].EnergyMJ / full.EnergyMJ
		spGPU += r[0].LatencyMS / full.LatencyMS
	}
	t.AddRow("Bishop(+BSA+ECP) vs PTB", x(spPTB/5), x(enPTB/5))
	t.AddRow("Bishop(+BSA+ECP) vs edge GPU", x(spGPU/5), "-")
	t.Note("paper: 5.91x speedup and 6.11x energy efficiency vs prior SNN accelerators; 299x vs GPU")
	return t
}

// sweep runs an in-memory DSE pass over the space's grid and returns its
// records in grid order; §6.5 figures are thin queries over this output.
func sweep(space dse.Space, seed uint64) []dse.Record {
	rs, err := dse.Sweep(context.Background(), space.Grid(), dse.Config{Seed: seed})
	if err != nil {
		panic(err) // in-memory sweeps fail only on a worker panic
	}
	if !rs.Complete() {
		panic("experiments: incomplete DSE sweep")
	}
	return rs.Records
}

// Fig15 reproduces the stratification-threshold design-space exploration on
// Model 3 — energy, latency, and EDP across dense/sparse split targets — as
// a query over the DSE engine's output.
func Fig15(seed uint64) *Table {
	t := &Table{ID: "fig15", Title: "Stratification split sweep, Model 3 (Fig. 15)",
		Header: []string{"Dense-fraction", "Latency(ms)", "Energy(mJ)", "EDP(norm)"}}
	fracs := []float64{0.1, 0.25, 0.4, 0.5, 0.6, 0.75, 0.9}
	recs := sweep(dse.Space{Models: []int{3}, SplitTargets: fracs}, seed)
	pRep := mustBackend(backend.PTBName).Simulate(traceFor(3, false, seed))
	var best float64
	for _, rec := range recs {
		if best == 0 || rec.EDP < best {
			best = rec.EDP
		}
	}
	for i, frac := range fracs {
		t.AddRow(pct(frac), f4(recs[i].LatencyMS), f4(recs[i].EnergyMJ), f2(recs[i].EDP/best))
	}
	t.AddRow("PTB", f4(pRep.LatencyMS()), f4(pRep.EnergyMJ()), f2(pRep.EDP()/best))
	t.Note("paper: balanced split gives 2.49x EDP improvement over PTB; imbalance degrades EDP up to 1.65x")
	return t
}

// Fig16 reproduces the TTB bundle-volume sensitivity on Model 3 — energy and
// latency for attention and projection/MLP layers across (BSt, BSn) — as a
// query over the DSE engine's output (the ECP threshold follows §6.1).
func Fig16(seed uint64) *Table {
	t := &Table{ID: "fig16", Title: "TTB volume (BSt,BSn) sensitivity, Model 3 (Fig. 16)",
		Header: []string{"BSt", "BSn", "Volume", "Lat(ms)", "En(mJ)", "ATN-lat", "Lin-lat"}}
	shapes := []bundle.Shape{
		{BSt: 1, BSn: 2}, {BSt: 2, BSn: 1}, {BSt: 2, BSn: 2}, {BSt: 2, BSn: 4},
		{BSt: 4, BSn: 2}, {BSt: 4, BSn: 4}, {BSt: 2, BSn: 7}, {BSt: 4, BSn: 14},
	}
	recs := sweep(dse.Space{Models: []int{3}, Shapes: shapes,
		ECPThetas: []int{paperTheta(3)}}, seed)
	for i, sh := range shapes {
		rec := recs[i]
		tech := rec.Opt.Tech
		atn := rec.Groups["ATN"]
		lin := rec.NonGroupTotal("ATN")
		t.AddRow(fmt.Sprint(sh.BSt), fmt.Sprint(sh.BSn), fmt.Sprint(sh.Volume()),
			f4(rec.LatencyMS), f4(rec.EnergyMJ),
			f4(atn.LatencyMS(tech)), f4(lin.LatencyMS(tech)))
	}
	t.Note("paper: volumes of 4-8 are near-optimal; very small volumes lose reuse, very large ones bundle idle tokens")
	return t
}

// Fig17 reports the Bishop area/power breakdown (§6.6).
func Fig17() *Table {
	t := &Table{ID: "fig17", Title: "Bishop area/power breakdown (Fig. 17)",
		Header: []string{"Module", "Power(mW)", "Power(%)", "Area(mm2)", "Area(%)"}}
	var pw, ar float64
	for _, m := range hw.BishopBreakdown() {
		pw += m.PowerMW
		ar += m.AreaMM2
	}
	for _, m := range hw.BishopBreakdown() {
		t.AddRow(m.Name, f2(m.PowerMW), pct(m.PowerMW/hw.BishopTotalPowerMW),
			f3(m.AreaMM2), pct(m.AreaMM2/hw.BishopTotalAreaMM2))
	}
	// Controller/stratifier remainder (clamped: the module figures already
	// account for essentially all of the synthesized power).
	restPW := hw.BishopTotalPowerMW - pw
	if restPW < 0 {
		restPW = 0
	}
	restAR := hw.BishopTotalAreaMM2 - ar
	if restAR < 0 {
		restAR = 0
	}
	t.AddRow("other (ctrl/stratifier)", f2(restPW), pct(restPW/hw.BishopTotalPowerMW),
		f3(restAR), pct(restAR/hw.BishopTotalAreaMM2))
	t.AddRow("TOTAL", f2(hw.BishopTotalPowerMW), "100%", f3(hw.BishopTotalAreaMM2), "100%")
	t.Note("PTB baseline synthesized at %.2f mm2, %.1f mW (§6.1)", hw.PTBTotalAreaMM2, hw.PTBTotalPowerMW)
	return t
}

// Sec64 reproduces the §6.4 architecture ablations on Model 3: the
// heterogeneity (dense-only vs dense+sparse) effect and the attention-core
// comparison against PTB's attention handling — both with BSA/ECP disabled.
func Sec64(seed uint64) *Table {
	tr := traceFor(3, false, seed)
	t := &Table{ID: "sec64", Title: "Hardware ablations, Model 3, no BSA/ECP (§6.4)",
		Header: []string{"Configuration", "Latency(ms)", "Energy(mJ)", "vs-ref"}}

	optHomo := accel.DefaultOptions()
	optHomo.Stratify = false
	var het, homo, p *hw.Report
	mustDo(
		func() { het = mustBackend(backend.BishopName).Simulate(tr) },
		func() { homo = backend.Bishop{Opt: optHomo}.Simulate(tr) },
		func() { p = mustBackend(backend.PTBName).Simulate(tr) })
	t.AddRow("dense-core only (homogeneous)", f4(homo.LatencyMS()), f4(homo.EnergyMJ()), "ref")
	t.AddRow("heterogeneous (stratified)", f4(het.LatencyMS()), f4(het.EnergyMJ()),
		fmt.Sprintf("%.2fx faster, %.2fx less energy",
			homo.LatencyMS()/het.LatencyMS(), homo.EnergyMJ()/het.EnergyMJ()))
	t.Note("paper: heterogeneity gives 1.39x speedup and 1.57x energy saving")

	bAtn := het.AttentionTotal()
	pAtn := p.AttentionTotal()
	t.AddRow("attention: PTB", f4(pAtn.LatencyMS(p.Tech)), f4(pAtn.EnergyMJ()), "ref")
	t.AddRow("attention: Bishop core", f4(bAtn.LatencyMS(het.Tech)), f4(bAtn.EnergyMJ()),
		fmt.Sprintf("%.1fx faster, %.2fx less energy",
			pAtn.LatencyMS(p.Tech)/bAtn.LatencyMS(het.Tech), pAtn.EnergyMJ()/bAtn.EnergyMJ()))
	t.Note("paper: attention core reduces latency 10.7-23.3x and energy 1.39-1.96x vs PTB")
	return t
}
