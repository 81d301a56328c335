// Package dense models the TT-Bundle Dense Core (§5.4): an output-stationary
// systolic array — 32 output-feature columns × 16 bundle rows of PEs, TPU
// style — where each PE holds one Token-Time Bundle and executes
// Select-ACcumulate (SAC) operations: the binary spike selects whether the
// streamed multi-bit weight is added to the slot's partial sum. Weight rows
// are broadcast along PE rows (inter-bundle reuse) and reused for every
// token-time slot inside a bundle (intra-bundle reuse), and inactive TTBs
// are skipped at dispatch.
package dense

import (
	"repro/internal/hw"
	"repro/internal/hw/memory"
)

// Simulate returns the latency/energy of running one stratified linear
// workload on the dense core.
func Simulate(t hw.Tech, arr hw.ArrayConfig, st hw.LinearStats) hw.Result {
	var r hw.Result
	if st.DIn == 0 || st.TotalSpikes == 0 {
		return r
	}
	rows, cols, lanes := int64(arr.DenseRows), int64(arr.DenseCols), int64(arr.LanesPerUnit)
	nBundleTiles := hw.CeilDiv(int64(st.B), rows)
	nColTiles := hw.CeilDiv(int64(st.DOut), cols)

	// Compute cycles: the dense core skips at TTB granularity only — an
	// active bundle streams ALL of its token-time slots through the SAC
	// lanes (idle slots included; that is what makes oversized bundle
	// volumes wasteful, §6.5.2, and why genuinely sparse features belong on
	// the sparse core). A bundle tile with no activity on the streamed
	// feature is skipped by dispatch. Slot streaming is deterministic, so
	// the 16 bundles of a tile stay in lockstep with no imbalance penalty.
	slotBeats := hw.CeilDiv(int64(st.Shape.Volume()), lanes)
	var weightGLBReads int64
	var computeCycles int64
	// Features with equal active-bundle counts cost the same, so each run
	// of them is charged at once.
	for _, run := range st.Runs {
		activeTiles := min(int64(run.Active), nBundleTiles) * int64(run.Features)
		computeCycles += activeTiles * slotBeats
		// One weight row (cols bytes per column tile) streamed per active
		// bundle tile, broadcast across the 16 PEs of the tile.
		weightGLBReads += activeTiles * int64(st.DOut) * hw.WeightBytes
	}
	computeCycles *= nColTiles

	// Memory: the execution is tiled over output-feature column groups with
	// double-buffered DRAM loads — tile i's compute hides tile i+1's weight
	// and activation traffic (memory.PipelineCycles); the output writeback
	// drains with the last tile.
	dram := st.WeightDRAMBytes() + st.ActivationDRAMBytes() + st.OutputDRAMBytes()
	perTileLoad := hw.CeilDiv(st.WeightDRAMBytes()+st.ActivationDRAMBytes(), nColTiles)
	perTileCompute := hw.CeilDiv(computeCycles, nColTiles)
	r.Cycles = memory.UniformPipelineCycles(t, nColTiles, perTileCompute, perTileLoad)
	if drain := hw.CeilDiv(st.OutputDRAMBytes(), int64(t.DRAMBytesPerCycle())); drain > perTileCompute {
		r.Cycles += drain - perTileCompute
	}
	r.Cycles += rows + cols // systolic fill/drain

	// Datapath energy: every spike triggers one SAC per output feature.
	ops := int64(st.TotalSpikes) * int64(st.DOut)
	r.OpsAcc = ops
	r.EPE = float64(ops) * (t.EMux + t.EAcc32 + t.EReg)

	// SRAM energy: weight streams + spike bundle reads + partial-sum drain.
	spikeGLB := st.ActivationDRAMBytes() // packed bundles staged in the spike GLB
	psum := int64(st.T) * int64(st.N) * int64(st.DOut) * hw.PsumBytes
	r.GLBBytes = weightGLBReads + spikeGLB + psum
	r.EGLB = float64(weightGLBReads)*hw.SRAMEnergyPerByte(hw.WeightGLBKB) +
		float64(spikeGLB+psum)*hw.SRAMEnergyPerByte(hw.SpikeGLBKB)

	r.DRAMBytes = dram
	r.EDRAM = float64(dram) * t.EDRAMPerByte
	return r
}
