// Package accel is the top-level Bishop accelerator simulator (Fig. 9): it
// walks an activation trace layer by layer, runs the stratifier on every
// MLP/projection workload, dispatches the dense and sparse partitions onto
// the heterogeneous cores concurrently, routes SSA layers (optionally under
// ECP) to the TT-Bundle attention core, and accounts the spike generator and
// memory system — producing per-layer and end-to-end latency/energy reports.
package accel

import (
	"slices"
	"sync"

	"repro/internal/bundle"
	"repro/internal/hw"
	"repro/internal/transformer"
)

// Options selects the architectural and algorithmic features active in a
// simulation run — the knobs the paper ablates.
type Options struct {
	Tech  hw.Tech
	Array hw.ArrayConfig
	Shape bundle.Shape // TTB volume (DefaultShape if zero)

	// Stratify enables the heterogeneous dense+sparse dispatch of Alg. 1.
	// When false, every MLP/projection layer runs on the dense core alone
	// (the §6.4 homogeneity ablation).
	Stratify bool
	// ThetaS is the explicit stratification threshold. When negative, the
	// per-layer balancing strategy of §6.5.1 is used with SplitTarget.
	ThetaS int
	// SplitTarget is the dense-core feature fraction targeted by the
	// balancing strategy (0 → default 0.5).
	SplitTarget float64

	// ECP, when non-nil, prunes attention workloads whose trace carries no
	// precomputed keep-masks.
	ECP *bundle.ECPConfig
}

// DefaultOptions returns the full-featured Bishop configuration.
func DefaultOptions() Options {
	return Options{
		Tech:     hw.Default28nm(),
		Array:    hw.BishopArray(),
		Shape:    bundle.DefaultShape,
		Stratify: true,
		ThetaS:   -1,
	}
}

func (o *Options) normalize() {
	if o.Tech.ClockHz == 0 {
		o.Tech = hw.Default28nm()
	}
	if o.Array.DensePEs == 0 {
		o.Array = hw.BishopArray()
	}
	if o.Shape.BSt == 0 {
		o.Shape = bundle.DefaultShape
	}
	if o.SplitTarget == 0 {
		o.SplitTarget = 0.5
	}
}

// simPool holds idle Simulators, so package-level Simulate calls reuse the
// layer buffer of earlier ones' reports instead of growing a fresh one
// every time.
var simPool = sync.Pool{New: func() any { return new(Simulator) }}

// Simulate runs the trace through the Bishop model and returns a report the
// caller owns. It borrows a pooled Simulator, so in steady state it
// allocates only the returned report and its layer slice; the walk itself
// is Simulator.Simulate's. Safe for concurrent use.
func Simulate(tr *transformer.Trace, opt Options) *hw.Report {
	opt.normalize()
	sim := simPool.Get().(*Simulator)
	sim.opt = opt
	rep := *sim.Simulate(tr)
	rep.Layers = slices.Clone(rep.Layers)
	simPool.Put(sim)
	return &rep
}

// SimulateSeq is Simulate.
//
// Deprecated: use Simulate, which is sequential and pooled.
func SimulateSeq(tr *transformer.Trace, opt Options) *hw.Report { return Simulate(tr, opt) }
