package backend

import (
	"repro/internal/baseline/gpu"
	"repro/internal/hw"
	"repro/internal/transformer"
)

// GPUName is the table name of the edge-GPU (Jetson Nano) baseline, the
// paper's software comparison point (§6.2).
const GPUName = "gpu"

// GPU wraps the baseline/gpu roofline model as a Backend.
type GPU struct {
	Opt gpu.Options
}

// Name implements Backend.
func (GPU) Name() string { return GPUName }

// Simulate implements Backend.
func (b GPU) Simulate(tr *transformer.Trace) *hw.Report { return gpu.Simulate(tr, b.Opt) }

// EncodeOptions implements Backend.
func (b GPU) EncodeOptions() ([]byte, error) { return gpu.EncodeOptions(b.Opt) }

// Digest implements Backend.
func (b GPU) Digest() uint64 { return FoldName(b.Opt.Digest(), GPUName) }
