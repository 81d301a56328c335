// Package main's bench harness regenerates every evaluation artifact of the
// paper as a testing.B benchmark: BenchmarkExperiments runs each id of
// experiments.FigList through experiments.Run — the code cmd/bishop runs —
// so a single `go test -bench=. -benchmem` run reproduces the evaluation.
// Training-based figures (Table 1, Figs. 5/8/14) run in quick mode here;
// `go run ./cmd/bishop -exp <id>` runs them at full budget. The remaining
// benchmarks measure the simulator's own costs.
package main

import (
	"testing"

	"repro/internal/accel"
	"repro/internal/bundle"
	"repro/internal/experiments"
	"repro/internal/tensor"
	"repro/internal/transformer"
	"repro/internal/workload"
)

func trace(model int, bsa bool, seed uint64) *transformer.Trace {
	cfg := transformer.ModelZoo()[model-1]
	return workload.SyntheticTrace(cfg, workload.Scenarios()[model],
		workload.TraceOptions{BSA: bsa}, seed)
}

// BenchmarkExperiments regenerates every table and figure, one
// sub-benchmark per experiment id (quick training budget, seed 1).
func BenchmarkExperiments(b *testing.B) {
	for _, id := range experiments.FigList() {
		b.Run(id, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				tbl, err := experiments.Run(id, true, 1)
				if err != nil {
					b.Fatal(err)
				}
				if len(tbl.Rows) == 0 {
					b.Fatalf("%s: empty table", id)
				}
			}
		})
	}
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
	xm := tensor.FromSlice(16, 12, x)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Forward(xm)
	}
}
