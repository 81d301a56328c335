package experiments

import (
	"fmt"
	"sort"

	"repro/internal/accel"
	"repro/internal/bundle"
	"repro/internal/dataset"
	"repro/internal/profiler"
	"repro/internal/snn"
	"repro/internal/train"
	"repro/internal/transformer"
)

// tinyTransformerConfig is the trainable configuration used by all
// accuracy-bearing experiments.
func tinyTransformerConfig(classes, patchDim, n, T int) transformer.Config {
	return transformer.Config{Name: "tiny", Blocks: 2, T: T, N: n, D: 32,
		Heads: 4, MLPRatio: 2, PatchDim: patchDim, Classes: classes,
		LIF: snn.DefaultLIF()}
}

func sizes(quick bool) (trainN, testN, epochs int) {
	if quick {
		return 80, 40, 4
	}
	return 200, 100, 10
}

// trainTiny trains a tiny spiking transformer on ds with optional BSA and
// ECP hooks, returning the model and its test accuracy.
func trainTiny(ds *dataset.Dataset, seed uint64, bsa *transformer.BSAConfig,
	prune transformer.PruneFn, epochs int) (*transformer.Model, float64) {
	T := ds.T
	if T == 0 {
		T = 4
	}
	m := transformer.NewModel(tinyTransformerConfig(ds.Classes, ds.PatchD, ds.N, T), seed)
	m.BSA = bsa
	m.Prune = prune
	tr := &train.Trainer{Model: m, Opt: train.NewAdamW(0.002, 1e-4), ClipL2: 5}
	acc := tr.Run(ds, epochs)
	return m, acc
}

// Fig3 reproduces the FLOPs breakdown of spiking transformers across token
// counts and depths (§2.2).
func Fig3() *Table {
	t := &Table{ID: "fig3", Title: "FLOPs breakdown of spiking transformers (Fig. 3)",
		Header: []string{"N", "D", "Blocks", "Attn%", "MLP%", "Proj%", "Attn+MLP%"}}
	for _, n := range []int{128, 256} {
		for _, blocks := range []int{4, 8, 12} {
			cfg := transformer.Model3
			cfg.N, cfg.D, cfg.Blocks = n, 128, blocks
			b := profiler.Profile(cfg)
			t.AddRow(fmt.Sprint(n), fmt.Sprint(cfg.D), fmt.Sprint(blocks),
				pct(b.Attention/b.Total()), pct(b.MLP/b.Total()),
				pct(b.Projection/b.Total()), pct(b.AttnMLPShare()))
		}
	}
	t.Note("paper: cumulative Attn+MLP FLOPs range from 66.5%% to 91.0%%, growing with N and depth")
	return t
}

// Table1 reproduces the SNN-architecture accuracy comparison on the
// CIFAR10-like synthetic task: the spiking transformer must beat the
// spiking CNN and MLP baselines.
func Table1(quick bool, seed uint64) *Table {
	trainN, testN, epochs := sizes(quick)
	// Token order is permuted per sample: a transformer pools over tokens
	// and is unaffected, while flatten/grid architectures lose the spatial
	// correspondence they rely on — the synthetic analogue of the paper's
	// "transformers capture global token structure" advantage.
	ds := dataset.CIFAR10LikeShuffled(trainN*2, testN, seed)
	epochs *= 2 // the permuted task needs a larger budget than the static one
	t := &Table{ID: "table1", Title: "SNN architecture accuracy on shuffled CIFAR10-like (Table 1)",
		Header: []string{"Architecture", "Test accuracy"}}

	// The three architectures train independently (each owns its model and
	// RNG; the dataset is read-only), so they run concurrently.
	var mlpAcc, cnnAcc, sptAcc float64
	mustDo(
		func() {
			mlp := newSpikingMLP(ds.N*ds.PatchD, 64, ds.Classes, 4, seed)
			mlpAcc = trainSimple(mlp.forward, mlp.backward, mlp.params(), ds, epochs)
		},
		func() {
			cnn := newSpikingCNN(4, ds.PatchD, ds.Classes, 4, seed)
			cnnAcc = trainSimple(cnn.forward, cnn.backward, cnn.params(), ds, epochs)
		},
		func() {
			_, sptAcc = trainTiny(ds, seed, nil, nil, epochs)
		})

	t.AddRow("Spiking MLP", f3(mlpAcc))
	t.AddRow("Spiking CNN", f3(cnnAcc))
	t.AddRow("Spiking Transformer", f3(sptAcc))
	t.Note("paper (real CIFAR10): spiking transformer 95.19%% vs spiking CNN/ResNet 91-93%%")
	return t
}

// Fig5 reproduces the active-bundle distribution of spiking queries with and
// without BSA training.
func Fig5(quick bool, seed uint64) *Table {
	trainN, testN, epochs := sizes(quick)
	ds := dataset.CIFAR10Like(trainN, testN, seed)
	sh := bundle.Shape{BSt: 2, BSn: 2}

	const buckets = 4
	collect := func(m *transformer.Model) (hist []float64, zero float64, density float64) {
		hist = make([]float64, buckets)
		var n int
		for _, s := range ds.Test[:min(8, len(ds.Test))] {
			m.Forward(s.X)
			for _, l := range m.Trace().ByGroup("ATN") {
				a := bundle.Tag(l.Q, sh)
				h := a.FeatureActivityHistogram(buckets)
				for i := range hist {
					hist[i] += h[i]
				}
				zero += a.ZeroFeatureFraction()
				density += l.Q.Density()
				n++
			}
		}
		for i := range hist {
			hist[i] /= float64(n)
		}
		return hist, zero / float64(n), density / float64(n)
	}

	// The ±BSA sides are independent trainings over a read-only dataset, so
	// they run concurrently; each side probes its own model right after
	// training (Forward mutates model state, so the probe stays in-slot).
	type side struct {
		hist          []float64
		zero, density float64
		acc           float64
	}
	bsaCfgs := []*transformer.BSAConfig{
		nil, {Lambda: 0.0004, Shape: sh, Structured: true}}
	sides := mustCollect(2, func(i int) side {
		m, acc := trainTiny(ds, seed, bsaCfgs[i], nil, epochs)
		h, z, d := collect(m)
		return side{hist: h, zero: z, density: d, acc: acc}
	})
	b, s := sides[0], sides[1]

	t := &Table{ID: "fig5", Title: "Active-bundle distribution of spiking queries, ±BSA (Fig. 5)",
		Header: []string{"Metric", "w/o BSA", "with BSA"}}
	for i := 0; i < buckets; i++ {
		t.AddRow(fmt.Sprintf("features in activity quartile %d", i+1), pct(b.hist[i]), pct(s.hist[i]))
	}
	t.AddRow("zero-activity features", pct(b.zero), pct(s.zero))
	t.AddRow("Q spike density", pct(b.density), pct(s.density))
	t.AddRow("test accuracy", f3(b.acc), f3(s.acc))
	t.Note("paper (Model 1): zero-activity features rise 9.3%% -> 52.2%% under BSA")
	return t
}

// Fig8 reproduces the attention-focus analysis: ECP concentrates attention
// mass on the strongest entries (the "denoising" effect).
func Fig8(quick bool, seed uint64) *Table {
	trainN, testN, epochs := sizes(quick)
	ds := dataset.CIFAR10Like(trainN, testN, seed)
	m, acc := trainTiny(ds, seed, nil, nil, epochs)

	focus := func(prune transformer.PruneFn) float64 {
		m.Prune = prune
		var all []float64
		for _, s := range ds.Test[:min(8, len(ds.Test))] {
			m.Forward(s.X)
			for h := 0; h < m.Cfg.Heads; h++ {
				for _, sm := range m.AttentionScores(m.Cfg.Blocks - 1)[h] {
					for _, v := range sm.Data {
						all = append(all, float64(v))
					}
				}
			}
		}
		sort.Sort(sort.Reverse(sort.Float64Slice(all)))
		var total, top float64
		k := len(all) / 10
		for i, v := range all {
			total += v
			if i < k {
				top += v
			}
		}
		if total == 0 {
			return 0
		}
		return top / total
	}
	base := focus(nil)
	// Choose θ from the model's own Q row-activity distribution so roughly
	// half the rows are pruned (the paper's absolute θ values presume its
	// trained full-size firing rates).
	// θ is calibrated on the final block — the one the focus metric reads —
	// since per-block activity levels differ.
	sh := bundle.Shape{BSt: 2, BSn: 2}
	m.Forward(ds.Test[0].X)
	atnLast := m.Trace().ByGroup("ATN")[m.Cfg.Blocks-1]
	ecp := bundle.ECPConfig{Shape: sh,
		ThetaQ: bundle.ThetaForKeepFraction(atnLast.Q, sh, 0.5),
		ThetaK: bundle.ThetaForKeepFraction(atnLast.K, sh, 0.5)}
	withECP := focus(ecp.PruneFn(nil))

	t := &Table{ID: "fig8", Title: "Attention focus under ECP (Fig. 8)",
		Header: []string{"Configuration", "Top-10% score mass"}}
	t.AddRow("without ECP", pct(base))
	t.AddRow("with ECP", pct(withECP))
	t.Note("model test accuracy %.3f; ECP concentrates attention on important regions (Fig. 8)", acc)
	return t
}

// Fig14 reproduces the ECP threshold sweep: accuracy vs the energy
// efficiency and speedup of the spiking self-attention layers.
func Fig14(quick bool, seed uint64) *Table {
	t := &Table{ID: "fig14", Title: "ECP threshold sweep: accuracy vs SSA-layer gains (Fig. 14)",
		Header: []string{"Model", "keep-target", "theta_p", "Accuracy", "Q-kept", "K-kept", "ATN-speedup", "ATN-energy-eff"}}
	models := []int{1, 3}
	// The sweep is parameterized by target keep fraction and converted to a
	// θ_p via each tensor's own row-activity quantiles (the paper's
	// absolute θ values presume its trained full-size firing rates).
	keeps := []float64{1, 0.9, 0.75, 0.5, 0.25, 0.1}
	if quick {
		models = []int{1}
		keeps = []float64{1, 0.75, 0.4}
	}
	trainN, testN, epochs := sizes(quick)
	mkDataset := map[int]func() *dataset.Dataset{
		1: func() *dataset.Dataset { return dataset.CIFAR10Like(trainN, testN, seed) },
		3: func() *dataset.Dataset { return dataset.ImageNet100Like(trainN, testN, seed) },
	}
	sh := bundle.Shape{BSt: 2, BSn: 2}
	// Models train and sweep independently; fan them out and append their
	// rows in model order. The per-model keep sweep stays sequential because
	// it mutates the trained model's prune hook between evaluations.
	perModel := mustCollect(len(models), func(idx int) [][]string {
		mi := models[idx]
		var rows [][]string
		ds := mkDataset[mi]()
		model, _ := trainTiny(ds, seed, nil, nil, epochs)
		trainer := &train.Trainer{Model: model}

		// θ references from the trained model's own Q/K activity.
		model.Prune = nil
		model.Forward(ds.Test[0].X)
		q0 := model.Trace().ByGroup("ATN")[0].Q
		k0 := model.Trace().ByGroup("ATN")[0].K

		// Reference hardware run: unpruned attention on the full-size model.
		tr0 := traceFor(mi, false, seed)
		hwQ := tr0.ByGroup("ATN")[0].Q
		hwK := tr0.ByGroup("ATN")[0].K
		ref := accel.Simulate(tr0, accel.DefaultOptions()).AttentionTotal()
		opt0 := accel.DefaultOptions()
		tech := opt0.Tech

		for _, keep := range keeps {
			var stats bundle.ECPStats
			theta := 0
			if keep < 1 {
				theta = bundle.ThetaForKeepFraction(q0, sh, keep)
				tk := bundle.ThetaForKeepFraction(k0, sh, keep)
				ecp := bundle.ECPConfig{Shape: sh, ThetaQ: theta, ThetaK: tk}
				model.Prune = ecp.PruneFn(&stats)
			} else {
				model.Prune = nil
				stats = bundle.ECPStats{QTokensKept: 1, QTokens: 1, KTokensKept: 1, KTokens: 1}
			}
			acc := trainer.Evaluate(ds)

			opt := accel.DefaultOptions()
			if keep < 1 {
				hq := bundle.ThetaForKeepFraction(hwQ, opt.Shape, keep)
				hk := bundle.ThetaForKeepFraction(hwK, opt.Shape, keep)
				opt.ECP = &bundle.ECPConfig{Shape: opt.Shape, ThetaQ: hq, ThetaK: hk}
			}
			atn := accel.Simulate(tr0, opt).AttentionTotal()
			rows = append(rows, []string{fmt.Sprintf("Model %d", mi), pct(keep),
				fmt.Sprint(theta), f3(acc),
				pct(stats.QKeepFrac()), pct(stats.KKeepFrac()),
				x(ref.LatencySec(tech) / atn.LatencySec(tech)),
				x(ref.EnergyPJ() / atn.EnergyPJ())})
		}
		return rows
	})
	for _, rows := range perModel {
		t.Rows = append(t.Rows, rows...)
	}
	t.Note("paper: moderate theta_p keeps or improves accuracy while giving up to 65.79x SSA speedup (ImageNet-100)")
	return t
}

// FigList names every experiment the CLI can run.
func FigList() []string {
	return []string{"table1", "table2", "fig3", "fig5", "fig6", "fig8",
		"fig11", "fig12", "fig13", "fig14", "fig15", "fig16", "fig17",
		"summary", "sec64"}
}

// Run executes one experiment by id. quick bounds the training-based
// experiments; hardware experiments ignore it.
func Run(id string, quick bool, seed uint64) (*Table, error) {
	switch id {
	case "table1":
		return Table1(quick, seed), nil
	case "table2":
		return Table2(), nil
	case "fig3":
		return Fig3(), nil
	case "fig5":
		return Fig5(quick, seed), nil
	case "fig6":
		return Fig6(seed), nil
	case "fig8":
		return Fig8(quick, seed), nil
	case "fig11":
		return Fig11(1, seed), nil
	case "fig12":
		return Fig12(seed), nil
	case "fig13":
		return Fig13(seed), nil
	case "fig14":
		return Fig14(quick, seed), nil
	case "fig15":
		return Fig15(seed), nil
	case "fig16":
		return Fig16(seed), nil
	case "fig17":
		return Fig17(), nil
	case "summary":
		return Summary(seed), nil
	case "sec64":
		return Sec64(seed), nil
	}
	return nil, fmt.Errorf("experiments: unknown id %q (want one of %v)", id, FigList())
}
