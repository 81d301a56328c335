package main

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/accel"
	"repro/internal/bundle"
	"repro/internal/dse"
	"repro/internal/hw"
	"repro/internal/hw/attention"
	"repro/internal/hw/dense"
	"repro/internal/hw/sparse"
	"repro/internal/transformer"
	"repro/internal/workload"
)

// paperSeed is the trace seed of the paper-configuration figures
// (BenchmarkFig12Latency and BenchmarkFig13Energy use it too). The sim
// metrics are computed at it whatever the workload seed, so they repeat
// exactly across runs.
const paperSeed = 1

// paperPoints returns, for one model, the two points of the paper's
// headline comparison: PTB on the plain trace, and Bishop with BSA on the
// default 4x2 bundle with ECP θ=6.
func paperPoints(model int) (ptbPoint, bishopPoint dse.Point) {
	p := dse.Space{Models: []int{model}, Backends: []string{"ptb"}}.Grid()
	b := dse.Space{Models: []int{model}, BSA: []bool{true}, ECPThetas: []int{6}}.Grid()
	return p[0], b[0]
}

// simFigures are the modelled-hardware (sim) metrics at the paper
// configuration, averaged over models 1–5.
type simFigures struct {
	speedup, energyGain                  float64
	atnCycleShare, dramMB, glbMB, opsAcc float64
}

var paper struct {
	once sync.Once
	f    simFigures
}

// paperFigures evaluates the paper configuration through dse.Evaluate, once
// per process.
func paperFigures() simFigures {
	paper.once.Do(func() {
		for m := 1; m <= 5; m++ {
			pp, bp := paperPoints(m)
			paper.f.add(dse.Evaluate(pp, paperSeed), dse.Evaluate(bp, paperSeed))
		}
		paper.f.scale(1.0 / 5)
	})
	return paper.f
}

func (f *simFigures) add(p, b dse.Record) {
	f.speedup += p.LatencyMS / b.LatencyMS
	f.energyGain += p.EnergyMJ / b.EnergyMJ
	f.atnCycleShare += float64(b.Groups["ATN"].Cycles) / float64(b.Total.Cycles)
	f.dramMB += float64(b.Total.DRAMBytes) / 1e6
	f.glbMB += float64(b.Total.GLBBytes) / 1e6
	f.opsAcc += float64(b.Total.OpsAcc)
}

func (f *simFigures) scale(k float64) {
	f.speedup *= k
	f.energyGain *= k
	f.atnCycleShare *= k
	f.dramMB *= k
	f.glbMB *= k
	f.opsAcc *= k
}

// figuresFromRecords computes the speedup and energy gain from a record set
// that holds the paper points at paperSeed (the grid-cold grid at seed 1).
func figuresFromRecords(recs []dse.Record) (simFigures, error) {
	by := map[string]dse.Record{}
	for _, r := range recs {
		by[r.Digest] = r
	}
	var f simFigures
	for m := 1; m <= 5; m++ {
		pp, bp := paperPoints(m)
		p, ok1 := by[dse.DigestKey(pp)]
		b, ok2 := by[dse.DigestKey(bp)]
		if !ok1 || !ok2 {
			return f, fmt.Errorf("paper points of model %d missing from the records", m)
		}
		f.add(p, b)
	}
	f.scale(1.0 / 5)
	return f, nil
}

// layerBreakdown is the host time one evaluation spends in each layer below
// dse.EvaluateAt, averaged over the sampled points.
type layerBreakdown struct {
	points                           int
	projMS, mlpMS, attnMS            float64 // single-layer traces through accel.SimulateSeq
	tagMS, stratifyMS, ecpMS, coreMS float64
	popcountWords                    float64 // words counted per point
	countNS                          float64 // ns spent counting them, all points
	nsPerKWord                       float64
	allocMBPerSimulate               float64
}

// breakdown re-runs a sample of the points a workload simulated, one layer
// at a time, and times each stage through the stage's public function:
// bundle.Tag, bundle.Stratify / StratifyForSplit, ECPConfig.Prune, the
// dense/sparse/attention core models, and spike.Tensor.Count. It runs on
// one goroutine after the measured phase.
func breakdown(sample []evalPoint) layerBreakdown {
	var b layerBreakdown
	for _, ep := range sample {
		p := ep.p
		if p.Backend != nil {
			continue
		}
		cfg := transformer.ModelZoo()[p.Model-1]
		sc := workload.Scenarios()[p.Model]
		tr := workload.CachedTrace(cfg, sc, workload.TraceOptions{BSA: p.BSA, Scale: ep.fidelity}, ep.seed)
		opt := p.Opt
		b.points++

		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		accel.SimulateSeq(tr, opt)
		runtime.ReadMemStats(&after)
		b.allocMBPerSimulate += float64(after.TotalAlloc-before.TotalAlloc) / 1e6

		for _, l := range tr.Layers {
			single := &transformer.Trace{Cfg: tr.Cfg, Layers: []transformer.TraceLayer{l}}
			switch l.Kind {
			case transformer.KindProjection, transformer.KindMLP:
				t0 := time.Now()
				accel.SimulateSeq(single, opt)
				if d := ms(time.Since(t0)); l.Kind == transformer.KindMLP {
					b.mlpMS += d
				} else {
					b.projMS += d
				}
				b.linearStages(l, opt)
			case transformer.KindAttention:
				t0 := time.Now()
				accel.SimulateSeq(single, opt)
				b.attnMS += ms(time.Since(t0))
				b.attentionStages(l, opt)
			}
		}
	}
	b.nsPerKWord = ratio(b.countNS, b.popcountWords/1000)
	if b.points > 0 {
		k := 1 / float64(b.points)
		for _, v := range []*float64{&b.projMS, &b.mlpMS, &b.attnMS, &b.tagMS, &b.stratifyMS,
			&b.ecpMS, &b.coreMS, &b.allocMBPerSimulate, &b.popcountWords} {
			*v *= k
		}
	}
	return b
}

func (b *layerBreakdown) linearStages(l transformer.TraceLayer, opt accel.Options) {
	words := len(l.In.Words())
	t0 := time.Now()
	l.In.Count()
	b.countNS += float64(time.Since(t0).Nanoseconds())
	b.popcountWords += float64(words)

	st := hw.NewLinearStats(l.In, l.DOut, opt.Shape)
	if !opt.Stratify {
		t0 = time.Now()
		dense.Simulate(opt.Tech, opt.Array, st)
		b.coreMS += ms(time.Since(t0))
		return
	}
	t0 = time.Now()
	tg := bundle.Tag(l.In, opt.Shape)
	b.tagMS += ms(time.Since(t0))
	t0 = time.Now()
	var res bundle.StratifyResult
	if opt.ThetaS >= 0 {
		res = bundle.Stratify(tg, opt.ThetaS)
	} else {
		res = bundle.StratifyForSplit(tg, opt.SplitTarget)
	}
	b.stratifyMS += ms(time.Since(t0))
	dSt, sSt := st.Split(res)
	t0 = time.Now()
	dense.Simulate(opt.Tech, opt.Array, dSt)
	sparse.Simulate(opt.Tech, opt.Array, sSt)
	b.coreMS += ms(time.Since(t0))
}

func (b *layerBreakdown) attentionStages(l transformer.TraceLayer, opt accel.Options) {
	if opt.ECP != nil && l.QKeep == nil {
		t0 := time.Now()
		l.QKeep, l.KKeep, _ = opt.ECP.Prune(l.Q, l.K)
		b.ecpMS += ms(time.Since(t0))
	}
	st := hw.NewAttnStats(l, opt.Shape)
	t0 := time.Now()
	attention.Simulate(opt.Tech, opt.Array, st)
	b.coreMS += ms(time.Since(t0))
}

// sampleByModel picks, with the seeded generator, one simulated bishop point
// per model, fidelity and ECP setting, so the breakdown's mix of model sizes
// and stages is the same on every seed.
func sampleByModel(pts []evalPoint, g *rng) []evalPoint {
	groups := map[[3]int][]evalPoint{}
	var keys [][3]int
	for _, ep := range pts {
		if ep.p.Backend != nil {
			continue
		}
		k := [3]int{ep.p.Model, ep.fidelity, boolInt(ep.p.Opt.ECP != nil)}
		if _, ok := groups[k]; !ok {
			keys = append(keys, k)
		}
		groups[k] = append(groups[k], ep)
	}
	sort.Slice(keys, func(a, b int) bool {
		for i := range keys[a] {
			if keys[a][i] != keys[b][i] {
				return keys[a][i] < keys[b][i]
			}
		}
		return false
	})
	var out []evalPoint
	for _, k := range keys {
		// Evaluators finish in any order; sort so the seeded pick is stable.
		gr := groups[k]
		sort.Slice(gr, func(a, b int) bool { return dse.DigestKey(gr[a].p) < dse.DigestKey(gr[b].p) })
		out = append(out, gr[g.intn(len(gr))])
	}
	return out
}
