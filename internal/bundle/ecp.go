package bundle

import (
	"slices"

	"repro/internal/spike"
)

// ECPConfig parameterizes Error-Constrained TTB Pruning (§5.1). A bundle
// row (bt, bn) of the query tensor is pruned when its active-bundle count
// n_ab across all features is below ThetaQ; the same rule with ThetaK prunes
// key rows. Because Q and K are binary, every entry of the attention map
// S = Q·Kᵀ produced by a pruned row is provably < θ, which is the
// error bound the name refers to.
type ECPConfig struct {
	Shape  Shape
	ThetaQ int
	ThetaK int
}

// ECPStats summarizes one application of ECP, feeding both the hardware
// model (how much attention work remains) and the evaluation tables.
type ECPStats struct {
	QRowsKept, QRowsTotal int // bundle rows
	KRowsKept, KRowsTotal int
	QTokensKept, QTokens  int // token-time slots
	KTokensKept, KTokens  int
}

// QKeepFrac returns the surviving fraction of Q token-time slots.
func (s ECPStats) QKeepFrac() float64 { return frac(s.QTokensKept, s.QTokens) }

// KKeepFrac returns the surviving fraction of K token-time slots.
func (s ECPStats) KKeepFrac() float64 { return frac(s.KTokensKept, s.KTokens) }

// ScoreWorkFrac returns the fraction of attention-map work remaining after
// the compounding row×column pruning of Fig. 7 (e.g. 20% Q × 10% K → 2%).
func (s ECPStats) ScoreWorkFrac() float64 { return s.QKeepFrac() * s.KKeepFrac() }

func frac(a, b int) float64 {
	if b == 0 {
		return 1
	}
	return float64(a) / float64(b)
}

// Prune applies ECP to a spiking query/key pair and returns the token
// keep-masks plus statistics: bundle row (bt, bn) survives iff its n_ab ≥ θ,
// and the mask expands survival to (t, n) token granularity. It satisfies
// the transformer.PruneFn contract (the masks zero S rows/columns, which
// inferentially prunes V and Y per Fig. 7).
func (c ECPConfig) Prune(q, k *spike.Tensor) (qKeep, kKeep [][]bool, stats ECPStats) {
	var b ActivityBuilder
	qr, kr := b.Rows(q, c.Shape), b.Rows(k, c.Shape)
	stats = ECPStats{QRowsTotal: qr.NBt * qr.NBn, KRowsTotal: kr.NBt * kr.NBn,
		QTokens: q.T * q.N, KTokens: k.T * k.N}
	stats.QRowsKept, stats.QTokensKept = qr.Kept(c.ThetaQ, c.Shape)
	stats.KRowsKept, stats.KTokensKept = kr.Kept(c.ThetaK, c.Shape)
	return qr.Keep(c.ThetaQ), kr.Keep(c.ThetaK), stats
}

// PruneFn adapts the config to the transformer.PruneFn signature, recording
// cumulative statistics across blocks in stats (which may be nil).
func (c ECPConfig) PruneFn(stats *ECPStats) func(q, k *spike.Tensor) ([][]bool, [][]bool) {
	return func(q, k *spike.Tensor) ([][]bool, [][]bool) {
		qm, km, s := c.Prune(q, k)
		if stats != nil {
			stats.QRowsKept += s.QRowsKept
			stats.QRowsTotal += s.QRowsTotal
			stats.KRowsKept += s.KRowsKept
			stats.KRowsTotal += s.KRowsTotal
			stats.QTokensKept += s.QTokensKept
			stats.QTokens += s.QTokens
			stats.KTokensKept += s.KTokensKept
			stats.KTokens += s.KTokens
		}
		return qm, km
	}
}

// ThetaForKeepFraction returns a pruning threshold θ that keeps at least
// the given fraction of s's bundle rows: the (1-keep)-quantile of the
// per-row active-bundle counts n_ab. Rows strictly below the quantile are
// pruned; ties survive, so a uniform-activity tensor is never pruned to
// zero. It converts the paper's absolute thresholds (which presume its
// trained full-size firing rates) into a parameterization portable across
// model widths.
func ThetaForKeepFraction(s *spike.Tensor, sh Shape, keep float64) int {
	if keep >= 1 {
		return 0
	}
	var b ActivityBuilder
	sorted := b.Rows(s, sh).PerRow
	slices.Sort(sorted)
	idx := int((1 - keep) * float64(len(sorted)))
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return int(sorted[idx])
}

// MaxScoreOfPruned returns the maximum attention-map entry (Σ_d Q∧K over
// features, the pre-scale integer score) that any *pruned* Q token would
// have produced against any K token — used to verify the ECP error bound
// empirically: it is always < ThetaQ.
func MaxScoreOfPruned(q, k *spike.Tensor, qKeep [][]bool) int {
	maxS := 0
	for t := 0; t < q.T; t++ {
		for n := 0; n < q.N; n++ {
			if qKeep[t][n] {
				continue
			}
			for m := 0; m < k.N; m++ {
				if s := q.TokenAndCount(t, n, k, t, m); s > maxS {
					maxS = s
				}
			}
		}
	}
	return maxS
}
