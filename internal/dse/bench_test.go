package dse

import (
	"context"
	"testing"
)

// BenchmarkSweepGrid regenerates the 12-point test grid through the full
// engine (trace cache hit, parallel evaluation, in-memory merge) — the
// per-point cost of a design-space sweep. After the warm-up every
// evaluation reads the trace's statistics memo (a memo hit), so this times
// the core models and the sweep machinery, not tagging;
// accel's BenchmarkSimulatorColdRung gates the memo-filling path.
func BenchmarkSweepGrid(b *testing.B) {
	points := testSpace().Grid()
	Evaluate(points[0], 1) // warm the trace cache
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rs, err := Sweep(context.Background(), points, Config{Seed: 1})
		if err != nil || !rs.Complete() {
			b.Fatalf("sweep failed: %v", err)
		}
	}
}

// BenchmarkFrontier measures Pareto extraction over an evaluated grid.
func BenchmarkFrontier(b *testing.B) {
	rs, err := Sweep(context.Background(), testSpace().Grid(), Config{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(Frontier(rs.Records)) == 0 {
			b.Fatal("empty frontier")
		}
	}
}
