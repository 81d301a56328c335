// Package main's bench harness regenerates every evaluation artifact of the
// paper as a testing.B benchmark: one benchmark per table/figure (plus the
// §6.4 ablations), reporting the headline quantities as custom metrics so a
// single `go test -bench=. -benchmem` run reproduces the evaluation.
// Training-based figures (Table 1, Figs. 5/8/14) run in quick mode here;
// `go run ./cmd/bishop -exp <id>` runs them at full budget.
package main

import (
	"testing"

	"repro/internal/accel"
	"repro/internal/baseline/gpu"
	"repro/internal/baseline/ptb"
	"repro/internal/bundle"
	"repro/internal/experiments"
	"repro/internal/profiler"
	"repro/internal/transformer"
	"repro/internal/workload"
)

func trace(model int, bsa bool, seed uint64) *transformer.Trace {
	cfg := transformer.ModelZoo()[model-1]
	return workload.SyntheticTrace(cfg, workload.Scenarios()[model],
		workload.TraceOptions{BSA: bsa}, seed)
}

// BenchmarkTable1Accuracy regenerates the SNN-architecture accuracy
// comparison (quick training budget).
func BenchmarkTable1Accuracy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tbl := experiments.Table1(true, 1)
		if len(tbl.Rows) != 3 {
			b.Fatal("table1 malformed")
		}
	}
}

// BenchmarkFig3Profile regenerates the FLOPs-breakdown sweep.
func BenchmarkFig3Profile(b *testing.B) {
	var share float64
	for i := 0; i < b.N; i++ {
		for _, cfg := range transformer.ModelZoo() {
			share = profiler.Profile(cfg).AttnMLPShare()
		}
	}
	b.ReportMetric(100*share, "attn+mlp-%")
}

// BenchmarkFig5BSA regenerates the bundle-distribution comparison (quick
// training budget).
func BenchmarkFig5BSA(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Fig5(true, 1)
	}
}

// BenchmarkFig6Stratification regenerates the density-quadrant analysis.
func BenchmarkFig6Stratification(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Fig6(1)
	}
}

// BenchmarkFig8AttentionFocus regenerates the ECP attention-focus analysis
// (quick training budget).
func BenchmarkFig8AttentionFocus(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Fig8(true, 1)
	}
}

// BenchmarkFig11LayerWise regenerates the layer-wise Bishop-vs-PTB
// comparison for Model 1.
func BenchmarkFig11LayerWise(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Fig11(1, 1)
	}
}

// BenchmarkFig12Latency regenerates the end-to-end latency comparison and
// reports the mean Bishop(+BSA+ECP) speedup over PTB.
func BenchmarkFig12Latency(b *testing.B) {
	var speedup float64
	for i := 0; i < b.N; i++ {
		speedup = 0
		for m := 1; m <= 5; m++ {
			base := trace(m, false, 1)
			bsa := trace(m, true, 1)
			p := ptb.Simulate(base, ptb.DefaultOptions())
			opt := accel.DefaultOptions()
			opt.ECP = &bundle.ECPConfig{Shape: opt.Shape, ThetaQ: 6, ThetaK: 6}
			full := accel.Simulate(bsa, opt)
			speedup += p.LatencyMS() / full.LatencyMS()
		}
		speedup /= 5
	}
	b.ReportMetric(speedup, "speedup-vs-PTB")
}

// BenchmarkFig13Energy regenerates the end-to-end energy comparison and
// reports the mean Bishop(+BSA+ECP) energy gain over PTB.
func BenchmarkFig13Energy(b *testing.B) {
	var gain float64
	for i := 0; i < b.N; i++ {
		gain = 0
		for m := 1; m <= 5; m++ {
			base := trace(m, false, 1)
			bsa := trace(m, true, 1)
			p := ptb.Simulate(base, ptb.DefaultOptions())
			opt := accel.DefaultOptions()
			opt.ECP = &bundle.ECPConfig{Shape: opt.Shape, ThetaQ: 6, ThetaK: 6}
			full := accel.Simulate(bsa, opt)
			gain += p.EnergyMJ() / full.EnergyMJ()
		}
		gain /= 5
	}
	b.ReportMetric(gain, "energy-gain-vs-PTB")
}

// BenchmarkFig12GPUBaseline regenerates the edge-GPU reference runs and
// reports the mean Bishop speedup over the GPU.
func BenchmarkFig12GPUBaseline(b *testing.B) {
	var speedup float64
	for i := 0; i < b.N; i++ {
		speedup = 0
		for m := 1; m <= 5; m++ {
			tr := trace(m, false, 1)
			g := gpu.Simulate(tr, gpu.DefaultOptions())
			bb := accel.Simulate(tr, accel.DefaultOptions())
			speedup += g.LatencyMS() / bb.LatencyMS()
		}
		speedup /= 5
	}
	b.ReportMetric(speedup, "speedup-vs-GPU")
}

// BenchmarkFig14ECPSweep regenerates the ECP threshold sweep (quick
// training budget).
func BenchmarkFig14ECPSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Fig14(true, 1)
	}
}

// BenchmarkFig15Stratify regenerates the stratification-threshold DSE and
// reports the EDP gain of the best split over PTB.
func BenchmarkFig15Stratify(b *testing.B) {
	var gain float64
	for i := 0; i < b.N; i++ {
		tr := trace(3, false, 1)
		p := ptb.Simulate(tr, ptb.DefaultOptions())
		best := 0.0
		for _, frac := range []float64{0.25, 0.5, 0.75} {
			opt := accel.DefaultOptions()
			opt.SplitTarget = frac
			rep := accel.Simulate(tr, opt)
			if best == 0 || rep.EDP() < best {
				best = rep.EDP()
			}
		}
		gain = p.EDP() / best
	}
	b.ReportMetric(gain, "EDP-gain-vs-PTB")
}

// BenchmarkFig16Volume regenerates the TTB-volume sensitivity sweep.
func BenchmarkFig16Volume(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Fig16(1)
	}
}

// BenchmarkFig17Breakdown regenerates the area/power breakdown table.
func BenchmarkFig17Breakdown(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Fig17()
	}
}

// BenchmarkSec64Ablation regenerates the §6.4 heterogeneity ablation and
// reports the heterogeneous-vs-homogeneous speedup.
func BenchmarkSec64Ablation(b *testing.B) {
	var speedup float64
	for i := 0; i < b.N; i++ {
		tr := trace(3, false, 1)
		het := accel.Simulate(tr, accel.DefaultOptions())
		opt := accel.DefaultOptions()
		opt.Stratify = false
		homo := accel.Simulate(tr, opt)
		speedup = homo.LatencyMS() / het.LatencyMS()
	}
	b.ReportMetric(speedup, "heterogeneity-speedup")
}

// BenchmarkAccelSimulate measures the simulator's own throughput on the
// largest model (engineering metric, not a paper artifact).
func BenchmarkAccelSimulate(b *testing.B) {
	tr := trace(5, false, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		accel.Simulate(tr, accel.DefaultOptions())
	}
}

// BenchmarkTraceGeneration measures synthetic-trace synthesis for the
// largest model — the cost the workload trace cache amortizes away.
func BenchmarkTraceGeneration(b *testing.B) {
	cfg := transformer.ModelZoo()[4]
	sc := workload.Scenarios()[5]
	for i := 0; i < b.N; i++ {
		workload.SyntheticTrace(cfg, sc, workload.TraceOptions{}, uint64(i)+1)
	}
}

// BenchmarkECPPrune measures ECP's own cost on a full-size Q/K pair.
func BenchmarkECPPrune(b *testing.B) {
	tr := trace(3, false, 1)
	atn := tr.ByGroup("ATN")[0]
	cfg := bundle.ECPConfig{Shape: bundle.DefaultShape, ThetaQ: 6, ThetaK: 6}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg.Prune(atn.Q, atn.K)
	}
}

// BenchmarkModelForward measures a tiny trained-size model forward pass.
func BenchmarkModelForward(b *testing.B) {
	cfg := transformer.Config{Name: "bench", Blocks: 2, T: 4, N: 16, D: 32,
		Heads: 4, MLPRatio: 2, PatchDim: 12, Classes: 10}
	cfg.LIF.Vth, cfg.LIF.Leak, cfg.LIF.SurrWidth = 1, 0.0625, 1
	m := transformer.NewModel(cfg, 1)
	x := make([]float32, 16*12)
	for i := range x {
		x[i] = float32(i%7) - 3
	}
	xm := matOf(16, 12, x)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Forward(xm)
	}
}
