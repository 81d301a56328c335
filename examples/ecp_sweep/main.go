// ecp_sweep explores the Error-Constrained TTB Pruning trade-off (Fig. 14)
// on the attention-bound ImageNet-100 configuration: for each pruning
// threshold it reports how many Q/K tokens survive, the provable score
// error bound, and the simulated attention-core latency/energy on Bishop.
// Each threshold is one accel.Simulate call on the same trace.
package main

import (
	"fmt"

	"repro/internal/accel"
	"repro/internal/bundle"
	"repro/internal/hw"
	"repro/internal/transformer"
	"repro/internal/workload"
)

func main() {
	cfg := transformer.Model3
	sc := workload.Scenarios()[3]
	tr := workload.SyntheticTrace(cfg, sc, workload.TraceOptions{}, 5)

	thetas := []int{0, 2, 4, 6, 8, 12, 16, 24}
	opts := make([]accel.Options, len(thetas))
	reps := make([]*hw.Report, len(thetas))
	for i, theta := range thetas {
		opts[i] = accel.DefaultOptions()
		if theta > 0 {
			opts[i].ECP = &bundle.ECPConfig{Shape: opts[i].Shape, ThetaQ: theta, ThetaK: theta}
		}
		reps[i] = accel.Simulate(tr, opts[i])
	}

	refAtn := reps[0].AttentionTotal() // theta 0 = unpruned reference
	tech := reps[0].Tech
	fmt.Printf("%s, attention layers only (unpruned: %.1f us, %.2f uJ)\n\n",
		cfg.Name, refAtn.LatencyMS(tech)*1e3, refAtn.EnergyPJ()*1e-6)
	fmt.Println("theta  Q-kept  K-kept  score-work  ATN-speedup  ATN-energy-eff")
	for i, theta := range thetas {
		var stats bundle.ECPStats
		if theta > 0 {
			// Gather survival stats from the first block's tensors.
			atn := tr.ByGroup("ATN")[0]
			_, _, stats = opts[i].ECP.Prune(atn.Q, atn.K)
		} else {
			stats = bundle.ECPStats{QTokensKept: 1, QTokens: 1, KTokensKept: 1, KTokens: 1}
		}
		atn := reps[i].AttentionTotal()
		fmt.Printf("%-6d %5.1f%%  %5.1f%%  %8.1f%%  %10.2fx  %12.2fx\n",
			theta, 100*stats.QKeepFrac(), 100*stats.KKeepFrac(),
			100*stats.ScoreWorkFrac(),
			refAtn.LatencySec(tech)/atn.LatencySec(tech),
			refAtn.EnergyPJ()/atn.EnergyPJ())
	}
	fmt.Println("\nEvery pruned attention-map entry is provably below theta (§5.1).")
}
