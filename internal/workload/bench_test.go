package workload

import (
	"testing"

	"repro/internal/transformer"
)

// BenchmarkTraceGeneration gates trace synthesis in `make bench-gate`: one
// Model 5 trace (the largest model), the cost the trace cache amortizes
// away and most of the work of a sweep over cold traces.
func BenchmarkTraceGeneration(b *testing.B) {
	cfg := transformer.ModelZoo()[4]
	sc := Scenarios()[5]
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		SyntheticTrace(cfg, sc, TraceOptions{}, 1)
	}
}
