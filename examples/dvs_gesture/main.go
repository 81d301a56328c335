// dvs_gesture demonstrates the temporal (event-stream) path the paper's
// Model 4 exercises: a DVS-like dataset where each sample is a sequence of
// per-step token frames, trained with a long time horizon, then profiled at
// TTB granularity to show how activity clusters in time.
package main

import (
	"fmt"

	"repro/internal/bundle"
	"repro/internal/dataset"
	"repro/internal/snn"
	"repro/internal/train"
	"repro/internal/transformer"
)

func main() {
	const T = 6
	ds := dataset.DVSGestureLike(132, 66, T, 21)
	cfg := transformer.Config{Name: "dvs-tiny", Blocks: 2, T: T, N: ds.N,
		D: 32, Heads: 4, MLPRatio: 2, PatchDim: ds.PatchD, Classes: ds.Classes,
		LIF: snn.DefaultLIF()}
	m := transformer.NewModel(cfg, 21)
	tr := &train.Trainer{Model: m, Opt: train.NewAdamW(0.002, 1e-4), ClipL2: 5, Verbose: true}
	acc := tr.Run(ds, 6)
	fmt.Printf("\nDVS-gesture-like accuracy: %.3f (11 classes, chance %.3f)\n\n", acc, 1.0/11)

	// TTB-level view of the temporal workload: larger temporal bundles
	// capture more of the clustered event activity per weight fetch —
	// the motivation for bundling along time (§3.1).
	m.ForwardSteps(ds.Test[0].Steps)
	q := m.Trace().ByGroup("ATN")[0].Q
	fmt.Println("bundle shape   TTB density   spikes per active bundle")
	for _, sh := range []bundle.Shape{{BSt: 1, BSn: 1}, {BSt: 2, BSn: 2}, {BSt: 3, BSn: 2}, {BSt: 6, BSn: 4}} {
		a := bundle.Tag(q, sh)
		per := 0.0
		if a.ActiveBundles > 0 {
			per = float64(a.Spikes) / float64(a.ActiveBundles)
		}
		fmt.Printf("(%d,%d)          %.3f         %.2f\n", sh.BSt, sh.BSn, a.BundleDensity(), per)
	}
}
