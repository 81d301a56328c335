package memory

import (
	"testing"

	"repro/internal/hw"
)

func TestPipelineOverlap(t *testing.T) {
	tech := hw.Default28nm()
	bpc := int64(tech.DRAMBytesPerCycle())
	// Two tiles, compute 100 cycles each, loads of 50 cycles each: the
	// second load hides under the first compute.
	tiles := []Tile{
		{ComputeCycles: 100, LoadBytes: 50 * bpc},
		{ComputeCycles: 100, LoadBytes: 50 * bpc},
	}
	got := PipelineCycles(tech, tiles)
	want := int64(50 + 100 + 100) // fill + 2 compute steps
	if got != want {
		t.Fatalf("got %d want %d", got, want)
	}
}

func TestPipelineMemoryBound(t *testing.T) {
	tech := hw.Default28nm()
	bpc := int64(tech.DRAMBytesPerCycle())
	// Loads dominate: every step costs the load, not the compute.
	tiles := []Tile{
		{ComputeCycles: 10, LoadBytes: 200 * bpc},
		{ComputeCycles: 10, LoadBytes: 200 * bpc},
	}
	got := PipelineCycles(tech, tiles)
	want := int64(200 + 200 + 10) // fill + hidden-compute step + last compute
	if got != want {
		t.Fatalf("got %d want %d", got, want)
	}
}

func TestPipelineEmpty(t *testing.T) {
	if PipelineCycles(hw.Default28nm(), nil) != 0 {
		t.Fatal("no tiles, no cycles")
	}
}

func TestSpillFactor(t *testing.T) {
	// Fits in half the buffer: resident regardless of passes.
	if SpillFactor(50, 200, 64) != 1 {
		t.Fatal("resident set must not spill")
	}
	// Oversized and re-walked: full refetch per pass.
	if SpillFactor(300, 200, 64) != 64 {
		t.Fatal("oversized re-walked set must pay per pass")
	}
	// Single pass never spills.
	if SpillFactor(1000, 10, 1) != 1 {
		t.Fatal("one pass is one fetch")
	}
}

func TestBishopHierarchy(t *testing.T) {
	h := Bishop()
	if h.WeightGLB != 144*1024 || h.SpikeGLB != 12*1024 {
		t.Fatalf("hierarchy %+v", h)
	}
}
