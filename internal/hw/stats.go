package hw

import (
	"repro/internal/bundle"
	"repro/internal/spike"
	"repro/internal/transformer"
)

// LinearStats summarizes one MLP/projection layer's spiking workload at TTB
// granularity: everything the dense/sparse core models need, with the raw
// tensor already reduced to counts. Runs is the ascending multiset of the
// per-feature active-bundle counts (see bundle.Activity), all the core
// models read of the features; a stratified partition is a contiguous
// subslice of it. The simulator builds LinearStats from its trace's
// statistics memo, so Runs aliases memory the trace owns and must not be
// modified.
type LinearStats struct {
	T, N, DIn, DOut int
	Shape           bundle.Shape
	B               int // bundle rows = ⌈T/BSt⌉·⌈N/BSn⌉

	Runs          bundle.Runs
	TotalSpikes   int
	ActiveBundles int
}

// NewLinearStats extracts the statistics of a projection/MLP layer with
// binary input in and a DIn×DOut weight matrix, bundled under sh.
func NewLinearStats(in *spike.Tensor, dout int, sh bundle.Shape) LinearStats {
	var b bundle.ActivityBuilder
	return LinearStatsOf(b.Activity(in, sh), dout)
}

// LinearStatsOf is the workload of a layer with a DIn×DOut weight matrix
// whose input has activity a. It copies no counts: Runs aliases a's.
func LinearStatsOf(a *bundle.Activity, dout int) LinearStats {
	return LinearStats{T: a.T, N: a.N, DIn: a.D, DOut: dout, Shape: a.Shape, B: a.NBt * a.NBn,
		Runs: a.Runs, TotalSpikes: a.Spikes, ActiveBundles: a.ActiveBundles}
}

// Split partitions the statistics by a stratification result of the same
// input, returning the dense-core and sparse-core sub-workloads. Alg. 1
// routes a feature by its count alone, so the result's threshold fixes the
// partition: SplitAt(res.Theta).
func (s LinearStats) Split(res bundle.StratifyResult) (dense, sparse LinearStats) {
	return s.SplitAt(res.Theta)
}

// SplitAt partitions the statistics at θ_s: features with more than θ
// active bundles go dense, the rest sparse. Both sides alias s's runs, so
// splitting allocates nothing.
func (s LinearStats) SplitAt(theta int) (dense, sparse LinearStats) {
	k := s.Runs.Cut(theta)
	return s.pick(s.Runs[k:]), s.pick(s.Runs[:k])
}

func (s LinearStats) pick(runs bundle.Runs) LinearStats {
	s.Runs, s.DIn, s.TotalSpikes, s.ActiveBundles = runs, 0, 0, 0
	for _, r := range runs {
		s.DIn += int(r.Features)
		s.TotalSpikes += int(r.Spikes)
		s.ActiveBundles += int(r.Active) * int(r.Features)
	}
	return s
}

// WeightDRAMBytes is the off-chip weight traffic of the layer: each 8-bit
// weight is fetched once (the GLB tiles it internally).
func (s LinearStats) WeightDRAMBytes() int64 {
	return int64(s.DIn) * int64(s.DOut) * WeightBytes
}

// ActivationDRAMBytes is the off-chip spike traffic: active bundles move as
// packed bit-vectors plus a tag byte; inactive bundles move nothing.
func (s LinearStats) ActivationDRAMBytes() int64 {
	bitsPerBundle := int64(s.Shape.Volume())
	return int64(s.ActiveBundles) * (CeilDiv(bitsPerBundle, 8) + 1)
}

// OutputDRAMBytes is the writeback of the produced binary spikes.
func (s LinearStats) OutputDRAMBytes() int64 {
	return CeilDiv(int64(s.T)*int64(s.N)*int64(s.DOut), 8)
}

// AttnStats summarizes one SSA layer's workload for the attention-core
// model, with ECP masks already folded into the kept-token counts.
type AttnStats struct {
	T, N, D int
	Shape   bundle.Shape

	QTokensKept, KTokensKept int // Σ over time of surviving tokens
	QBundleRows, KBundleRows int // surviving bundle rows (dispatch units)
}

// NewAttnStats extracts attention workload statistics from a traced SSA
// layer. When the trace carries ECP keep-masks they determine survival;
// otherwise everything is kept.
func NewAttnStats(l transformer.TraceLayer, sh bundle.Shape) AttnStats {
	q, k := l.Q, l.K
	st := AttnStats{T: q.T, N: q.N, D: q.D, Shape: sh}
	count := func(mask [][]bool, total int) int {
		if mask == nil {
			return total
		}
		var c int
		for _, row := range mask {
			for _, keep := range row {
				if keep {
					c++
				}
			}
		}
		return c
	}
	st.QTokensKept = count(l.QKeep, q.T*q.N)
	st.KTokensKept = count(l.KKeep, k.T*k.N)

	nbt := (q.T + sh.BSt - 1) / sh.BSt
	nbn := (q.N + sh.BSn - 1) / sh.BSn
	rows := func(mask [][]bool) int {
		if mask == nil {
			return nbt * nbn
		}
		var c int
		for bt := 0; bt < nbt; bt++ {
			for bn := 0; bn < nbn; bn++ {
				t0, n0 := bt*sh.BSt, bn*sh.BSn
				if t0 < len(mask) && n0 < len(mask[t0]) && mask[t0][n0] {
					c++
				}
			}
		}
		return c
	}
	st.QBundleRows = rows(l.QKeep)
	st.KBundleRows = rows(l.KKeep)
	return st
}

// NewPrunedAttnStats is NewAttnStats for an SSA layer that ECP config c
// prunes, given the per-row counts n_ab of its query and key under c.Shape:
// the kept tokens and bundle rows follow from the counts, with no
// keep-masks built. It equals NewAttnStats of the layer carrying the masks
// c.Prune returns, for any c.Shape.
func NewPrunedAttnStats(l transformer.TraceLayer, sh bundle.Shape, c bundle.ECPConfig, q, k *bundle.RowActivity) AttnStats {
	st := AttnStats{T: l.Q.T, N: l.Q.N, D: l.Q.D, Shape: sh}
	st.QBundleRows, st.QTokensKept = keptUnder(q, c.ThetaQ, sh)
	st.KBundleRows, st.KTokensKept = keptUnder(k, c.ThetaK, sh)
	return st
}

// keptUnder is r.Kept with the rows counted under sh.
func keptUnder(r *bundle.RowActivity, theta int, sh bundle.Shape) (rows, tokens int) {
	rows, tokens = r.Kept(theta)
	if sh != r.Shape {
		rows = r.KeptRowsUnder(theta, sh)
	}
	return rows, tokens
}

// QKVBits returns the packed size of the surviving Q, K, and V spike data in
// bits (V survival follows K per the inferential pruning of Fig. 7).
func (a AttnStats) QKVBits() (q, k, v int64) {
	perTokD := int64(a.D)
	q = int64(a.QTokensKept) * perTokD
	k = int64(a.KTokensKept) * perTokD
	v = int64(a.KTokensKept) * perTokD
	return q, k, v
}
