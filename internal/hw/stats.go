package hw

import (
	"repro/internal/bundle"
	"repro/internal/spike"
	"repro/internal/transformer"
)

// LinearStats summarizes one MLP/projection layer's spiking workload at TTB
// granularity: everything the dense/sparse core models need, with the raw
// tensors already reduced to counts.
type LinearStats struct {
	T, N, DIn, DOut int
	Shape           bundle.Shape
	B               int // bundle rows = ⌈T/BSt⌉·⌈N/BSn⌉

	ActivePerFeature []int // active bundles per input feature column
	TotalSpikes      int
	ActiveBundles    int
}

// NewLinearStats extracts the statistics of a projection/MLP layer with
// binary input in and a DIn×DOut weight matrix, bundled under sh.
func NewLinearStats(in *spike.Tensor, dout int, sh bundle.Shape) LinearStats {
	var st LinearStats
	st.Reset(in, dout, sh, &bundle.Tags{})
	return st
}

// Reset recomputes st for a new workload, reusing both its own per-feature
// slices and the caller-held tag scratch — the zero-alloc form of
// NewLinearStats for steady-state simulation loops. tg is left holding the
// computed tags (callers feed it to the stratifier); every statistic is
// copied from the ones Retag cached.
func (st *LinearStats) Reset(in *spike.Tensor, dout int, sh bundle.Shape, tg *bundle.Tags) {
	tg.Retag(in, sh)
	st.T, st.N, st.DIn, st.DOut, st.Shape = in.T, in.N, in.D, dout, sh
	st.B = tg.NBt * tg.NBn
	st.ActivePerFeature = tg.ActivePerFeatureInto(st.ActivePerFeature)
	st.TotalSpikes = tg.SpikeCount()
	st.ActiveBundles = tg.ActiveBundles()
}

// Split partitions the per-feature statistics by a stratification result of
// the same input, returning the dense-core and sparse-core sub-workloads.
func (s LinearStats) Split(res bundle.StratifyResult) (dense, sparse LinearStats) {
	var d, sp LinearStats
	s.SplitInto(res, &d, &sp)
	return d, sp
}

// SplitInto is Split writing into caller-held stats, reusing their
// per-feature slices across calls. Each side's totals are the ones the
// stratifier summed while partitioning.
func (s *LinearStats) SplitInto(res bundle.StratifyResult, dense, sparse *LinearStats) {
	s.pickInto(res.Dense, res.DenseSpikes, res.DenseBundles, dense)
	s.pickInto(res.Sparse, res.SparseSpikes, res.SparseBundles, sparse)
}

func (s *LinearStats) pickInto(idx []int, spikes, bundles int, out *LinearStats) {
	apf := out.ActivePerFeature[:0]
	*out = *s
	for _, d := range idx {
		apf = append(apf, s.ActivePerFeature[d])
	}
	out.ActivePerFeature = apf
	out.DIn, out.TotalSpikes, out.ActiveBundles = len(idx), spikes, bundles
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

// QKVBits returns the packed size of the surviving Q, K, and V spike data in
// bits (V survival follows K per the inferential pruning of Fig. 7).
func (a AttnStats) QKVBits() (q, k, v int64) {
	perTokD := int64(a.D)
	q = int64(a.QTokensKept) * perTokD
	k = int64(a.KTokensKept) * perTokD
	v = int64(a.KTokensKept) * perTokD
	return q, k, v
}
