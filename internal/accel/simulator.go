package accel

import (
	"repro/internal/bundle"
	"repro/internal/hw"
	"repro/internal/hw/attention"
	"repro/internal/hw/dense"
	"repro/internal/hw/sparse"
	"repro/internal/hw/spikegen"
	"repro/internal/spike"
	"repro/internal/transformer"
)

// Simulator is the Bishop simulation engine: it owns all working memory the
// layer walk needs (tags, stratifier buffers, split statistics, ECP masks,
// the report itself) and reuses it across calls, so steady-state
// simulation — the inner loop of design-space sweeps — does not touch the
// heap. The walk is sequential. The package-level Simulate runs this same
// walk on a pooled Simulator and copies the report out.
//
// The returned report and everything it references are owned by the
// Simulator and valid until the next Simulate call. A Simulator is not safe
// for concurrent use; give each worker its own.
type Simulator struct {
	opt Options
	rep hw.Report

	// tagged is the input that tags, st, stratRes, dSt and sSt hold in the
	// current walk, compared by pointer: Wq, Wk and Wv share one tensor.
	tagged   *spike.Tensor
	tags     bundle.Tags
	strat    bundle.StratifyScratch
	stratRes bundle.StratifyResult
	st       hw.LinearStats
	dSt, sSt hw.LinearStats
	ecp      bundle.ECPScratch
}

// NewSimulator returns a Simulator with the options normalized once.
func NewSimulator(opt Options) *Simulator {
	opt.normalize()
	return &Simulator{opt: opt}
}

// Options returns the normalized options the Simulator runs with.
func (sim *Simulator) Options() Options { return sim.opt }

// Simulate runs the trace through the Bishop model, reusing the
// Simulator's scratch. The report is valid until the next call.
func (sim *Simulator) Simulate(tr *transformer.Trace) *hw.Report {
	rep := &sim.rep
	rep.Name, rep.Tech = "Bishop", sim.opt.Tech
	rep.Total = hw.Result{}
	rep.Layers = rep.Layers[:0]
	sim.tagged = nil
	for _, l := range tr.Layers {
		switch l.Kind {
		case transformer.KindProjection, transformer.KindMLP:
			rep.Layers = append(rep.Layers, sim.linear(l))
		case transformer.KindAttention:
			rep.Layers = append(rep.Layers, sim.attention(l))
		default:
			// Tokenizer: profiled but not a target of the accelerator
			// (§2.2); prior spiking-CNN accelerators handle it.
		}
	}
	rep.Finalize()
	return rep
}

// linear stratifies an MLP/projection layer onto the dense and sparse cores
// (Alg. 1), or runs it on the dense core alone when stratification is off,
// with every buffer drawn from the scratch. The input is tagged, stratified
// and split only when it differs from the previous linear layer's.
func (sim *Simulator) linear(l transformer.TraceLayer) hw.LayerReport {
	opt := sim.opt
	st := &sim.st
	if sim.tagged == nil || l.In != sim.tagged {
		sim.tagged = l.In
		st.Reset(l.In, l.DOut, opt.Shape, &sim.tags)
		if opt.Stratify {
			if opt.ThetaS >= 0 {
				bundle.StratifyInto(&sim.tags, opt.ThetaS, &sim.stratRes)
			} else {
				bundle.StratifyForSplitInto(&sim.tags, opt.SplitTarget, &sim.strat, &sim.stratRes)
			}
			st.SplitInto(sim.stratRes, &sim.dSt, &sim.sSt)
		}
	}
	st.DOut, sim.dSt.DOut, sim.sSt.DOut = l.DOut, l.DOut, l.DOut
	out := hw.LayerReport{Block: l.Block, Group: l.Group, Name: l.Name}

	var r hw.Result
	if opt.Stratify {
		// The two cores process their partitions concurrently; the layer
		// completes when both have (latency = max), then the spike
		// generator merges partial sums.
		dr := dense.Simulate(opt.Tech, opt.Array, sim.dSt)
		sr := sparse.Simulate(opt.Tech, opt.Array, sim.sSt)
		dr.ChargeStatic(opt.Tech, hw.PowerOf("TTB dense core"))
		sr.ChargeStatic(opt.Tech, hw.PowerOf("TTB sparse core"))
		out.Dense, out.Sparse = dr, sr
		r = dr
		r.Parallel(sr)
		// Stratifier: one tag comparison per feature, 32 lanes.
		r.Cycles += hw.CeilDiv(int64(st.DIn), 32)
		r.Add(spikeGen(opt, int64(st.T)*int64(st.N)*int64(st.DOut), true))
		out.Core = "dense+sparse"
	} else {
		dr := dense.Simulate(opt.Tech, opt.Array, *st)
		dr.ChargeStatic(opt.Tech, hw.PowerOf("TTB dense core"))
		out.Dense = dr
		r = dr
		r.Add(spikeGen(opt, int64(st.T)*int64(st.N)*int64(st.DOut), false))
		out.Core = "dense"
	}
	out.Result = r
	return out
}

// attention runs an SSA layer on the TTB attention core, first pruning it
// under ECP when the trace carries no keep-masks; the masks are drawn from
// the scratch (they are only read within this call).
func (sim *Simulator) attention(l transformer.TraceLayer) hw.LayerReport {
	opt := sim.opt
	if opt.ECP != nil && l.QKeep == nil {
		qm, km, _ := opt.ECP.PruneInto(l.Q, l.K, &sim.ecp)
		l.QKeep, l.KKeep = qm, km
	}
	st := hw.NewAttnStats(l, opt.Shape)
	r := attention.Simulate(opt.Tech, opt.Array, st)
	r.ChargeStatic(opt.Tech, hw.PowerOf("TTB attention core"))
	r.Add(spikeGen(opt, int64(st.T)*int64(st.N)*int64(st.D), false))
	return hw.LayerReport{Block: l.Block, Group: l.Group, Name: l.Name,
		Core: "attention", Result: r}
}

func spikeGen(opt Options, neurons int64, merge bool) hw.Result {
	r := spikegen.Simulate(opt.Tech, opt.Array, neurons, merge)
	r.ChargeStatic(opt.Tech, hw.PowerOf("Spike generator"))
	return r
}
