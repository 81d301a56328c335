// Package memory models Bishop's three-level memory hierarchy (§6.1):
// DRAM behind double-buffered global buffers (GLBs) behind PE-local
// registers. It provides the two quantities the core models need — the
// overlap-aware latency of a tiled computation and the DRAM amplification
// ("spill") paid when a working set exceeds its buffer and the dataflow
// cannot keep it resident.
package memory

import "repro/internal/hw"

// Hierarchy describes one accelerator's buffer provisioning in bytes.
type Hierarchy struct {
	WeightGLB int64 // weight global buffer capacity
	SpikeGLB  int64 // each ping-pong spike TTB GLB
}

// Bishop returns the §6.1 provisioning: a 144 KB weight GLB and two 12 KB
// ping-pong spike GLBs.
func Bishop() Hierarchy {
	return Hierarchy{WeightGLB: hw.WeightGLBKB * 1024, SpikeGLB: hw.SpikeGLBKB * 1024}
}

// Tile is one unit of a tiled execution: its compute time and the bytes it
// must move from DRAM before it can run.
type Tile struct {
	ComputeCycles int64
	LoadBytes     int64
}

// PipelineCycles returns the latency of executing tiles back-to-back under
// double buffering: tile i's compute overlaps tile i+1's load, so each step
// costs max(compute_i, load_{i+1}) plus the initial fill. This is the
// standard analytic double-buffer model the paper's methodology cites
// ("each level of memory is double-buffered to hide latency").
func PipelineCycles(t hw.Tech, tiles []Tile) int64 {
	if len(tiles) == 0 {
		return 0
	}
	bpc := int64(t.DRAMBytesPerCycle())
	load := func(i int) int64 { return hw.CeilDiv(tiles[i].LoadBytes, bpc) }
	total := load(0) // fill
	for i := range tiles {
		step := tiles[i].ComputeCycles
		if i+1 < len(tiles) {
			if l := load(i + 1); l > step {
				step = l
			}
		}
		total += step
	}
	return total
}

// UniformPipelineCycles is PipelineCycles for n identical tiles without
// materializing the slice: the fill load, then n-1 steps of
// max(compute, load), then the final tile's compute (nothing left to
// prefetch under it). Bit-identical to PipelineCycles over n copies of
// {computeCycles, loadBytes}.
func UniformPipelineCycles(t hw.Tech, n, computeCycles, loadBytes int64) int64 {
	if n <= 0 {
		return 0
	}
	load := hw.CeilDiv(loadBytes, int64(t.DRAMBytesPerCycle()))
	step := computeCycles
	if load > step {
		step = load
	}
	return load + (n-1)*step + computeCycles
}

// SpillFactor returns the DRAM traffic amplification for a working set
// that is re-walked `passes` times by the dataflow: 1 when the set fits in
// the (double-buffered) capacity and stays resident, otherwise the full
// per-pass refetch. Bishop's bundle dataflow walks weights once per layer
// (passes=1 → factor 1 regardless of size); PTB's token-serial dataflow
// re-walks the weight matrix once per token-window, so oversized layers
// (e.g. the D×4D MLP weights of Models 1/2/5) are re-fetched from DRAM.
func SpillFactor(workingSet, capacity, passes int64) int64 {
	if passes <= 1 || workingSet <= capacity/2 {
		return 1
	}
	return passes
}
