package accel

import (
	"repro/internal/bundle"
	"repro/internal/hw"
	"repro/internal/hw/attention"
	"repro/internal/hw/dense"
	"repro/internal/hw/sparse"
	"repro/internal/hw/spikegen"
	"repro/internal/transformer"
)

// Simulator is the Bishop simulation engine. It reads every spike statistic
// the layer walk needs — the per-feature activity of each linear input, the
// per-row counts ECP thresholds — from the trace's statistics memo
// (transformer.Trace.Stats), which tags each distinct tensor once per
// bundle shape for the trace's lifetime. The first walk of a trace under a
// shape fills the memo; every later walk, under any stratifier or ECP
// setting, is the core models' arithmetic alone and does not touch the
// heap. The walk is sequential. The package-level Simulate runs this same
// walk on a pooled Simulator and copies the report out.
//
// The returned report and everything it references are owned by the
// Simulator and valid until the next Simulate call. A Simulator is not safe
// for concurrent use; give each worker its own. Any number of Simulators
// may walk one trace at once.
type Simulator struct {
	opt Options
	rep hw.Report
}

// NewSimulator returns a Simulator with the options normalized once.
func NewSimulator(opt Options) *Simulator {
	opt.normalize()
	return &Simulator{opt: opt}
}

// Options returns the normalized options the Simulator runs with.
func (sim *Simulator) Options() Options { return sim.opt }

// Simulate runs the trace through the Bishop model. The report is valid
// until the next call.
func (sim *Simulator) Simulate(tr *transformer.Trace) *hw.Report {
	opt := &sim.opt
	rep := &sim.rep
	rep.Name, rep.Tech = "Bishop", opt.Tech
	rep.Total = hw.Result{}
	rep.Layers = rep.Layers[:0]
	lin := tr.Stats(opt.Shape).Linear()
	var q, k []*bundle.RowActivity
	if opt.ECP != nil {
		q, k = tr.Stats(opt.ECP.Shape).Rows()
	}
	for i, l := range tr.Layers {
		switch l.Kind {
		case transformer.KindProjection, transformer.KindMLP:
			rep.Layers = append(rep.Layers, sim.linear(l, lin[i]))
		case transformer.KindAttention:
			var st hw.AttnStats
			if opt.ECP != nil && l.QKeep == nil {
				// ECP prunes the layer: the trace carries no keep-masks.
				st = hw.NewPrunedAttnStats(l, opt.Shape, *opt.ECP, q[i], k[i])
			} else {
				st = hw.NewAttnStats(l, opt.Shape)
			}
			rep.Layers = append(rep.Layers, sim.attention(l, st))
		default:
			// Tokenizer: profiled but not a target of the accelerator
			// (§2.2); prior spiking-CNN accelerators handle it.
		}
	}
	rep.Finalize()
	return rep
}

// linear stratifies an MLP/projection layer onto the dense and sparse cores
// (Alg. 1), or runs it on the dense core alone when stratification is off.
// Its input's activity comes from the memo; the partitions are cuts of its
// runs.
func (sim *Simulator) linear(l transformer.TraceLayer, act *bundle.Activity) hw.LayerReport {
	opt := sim.opt
	st := hw.LinearStatsOf(act, l.DOut)
	out := hw.LayerReport{Block: l.Block, Group: l.Group, Name: l.Name}

	var r hw.Result
	if opt.Stratify {
		theta := opt.ThetaS
		if theta < 0 {
			theta = act.Runs.SplitTheta(opt.SplitTarget)
		}
		dSt, sSt := st.SplitAt(theta)
		// The two cores process their partitions concurrently; the layer
		// completes when both have (latency = max), then the spike
		// generator merges partial sums.
		dr := dense.Simulate(opt.Tech, opt.Array, dSt)
		sr := sparse.Simulate(opt.Tech, opt.Array, sSt)
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
		dr := dense.Simulate(opt.Tech, opt.Array, st)
		dr.ChargeStatic(opt.Tech, hw.PowerOf("TTB dense core"))
		out.Dense = dr
		r = dr
		r.Add(spikeGen(opt, int64(st.T)*int64(st.N)*int64(st.DOut), false))
		out.Core = "dense"
	}
	out.Result = r
	return out
}

// attention runs an SSA layer on the TTB attention core.
func (sim *Simulator) attention(l transformer.TraceLayer, st hw.AttnStats) hw.LayerReport {
	opt := sim.opt
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
