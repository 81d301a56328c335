// Package bundle implements the paper's central data-management concepts:
//
//   - spiking Token-Time Bundles (TTBs, §3.2): fixed-size containers packing
//     BSn tokens × BSt time points of binary activations for one feature,
//     together with their L0 activity tags (Eq. 9);
//   - the workload stratifier of Alg. 1 that splits features into dense and
//     sparse sets for the heterogeneous cores;
//   - Error-Constrained TTB Pruning (ECP, §5.1) of spiking queries and keys
//     with its provable attention-score error bound.
package bundle

import (
	"fmt"
	"math/bits"
	"slices"

	"repro/internal/spike"
)

// resizeInts returns dst resized to n zeroed elements, reusing its backing
// array when the capacity allows — how Retag reuses its buffers.
func resizeInts(dst []int, n int) []int {
	if cap(dst) < n {
		return make([]int, n)
	}
	dst = dst[:n]
	for i := range dst {
		dst[i] = 0
	}
	return dst
}

// Shape is the TTB bundle volume: BSt time points × BSn tokens (Fig. 4).
type Shape struct {
	BSt, BSn int
}

// DefaultShape is the (4, 2) volume used by the main evaluation; Fig. 16
// shows volumes between 4 and 8 are near-optimal.
var DefaultShape = Shape{BSt: 4, BSn: 2}

// Volume returns BSt·BSn, the number of spatiotemporal slots per bundle.
func (s Shape) Volume() int { return s.BSt * s.BSn }

func (s Shape) validate() {
	if s.BSt <= 0 || s.BSn <= 0 {
		panic(fmt.Sprintf("bundle: invalid shape %+v", s))
	}
}

// Tags holds the reductions of the L0 activity tags Z of a spike tensor's
// bundles (Eq. 9) that the stratifier (Alg. 1), the core models and ECP
// (§5.1) read: per-feature active-bundle and spike counts, the per-row
// n_ab, and the totals. Retag computes all of them in one pass over the
// tensor without assembling any per-bundle tag; they are unexported so
// nothing can change the tensor's statistics piecemeal. Counts returns the
// tags themselves.
type Tags struct {
	Shape    Shape
	T, N, D  int
	NBt, NBn int

	activePerFeat []int
	spikesPerFeat []int
	activePerRow  []int
	activeBundles int
	spikes        int
}

// Tag computes the bundle activity tags of s under the given bundle shape.
func Tag(s *spike.Tensor, sh Shape) *Tags {
	tg := &Tags{}
	tg.Retag(s, sh)
	return tg
}

// Retag recomputes every statistic of s into tg, reusing tg's buffers
// when their capacity suffices. It is the zero-alloc form of Tag for
// steady-state simulation loops, and the only pass over the tensor: the
// accessors below read what it cached.
//
// The scan is bit-sliced (the carry-save counting of Muła, Kurz & Lemire,
// "Faster Population Counts Using AVX2 Instructions", 2018, in portable
// Go). For each bundle row and each 64-feature word, the row's token words
// are ripple-carry added into vertical counter planes, so plane p holds bit
// p of all 64 features' bundle tags at once. Each set bit of plane p adds
// 2^p to its feature's spike count, and the OR of the planes is the word's
// active mask, whose set bits count the feature's active bundles. The work
// is one pass over the tensor words plus a few visits per active bundle,
// instead of one increment per spike.
func (tg *Tags) Retag(s *spike.Tensor, sh Shape) {
	sh.validate()
	nbt := (s.T + sh.BSt - 1) / sh.BSt
	nbn := (s.N + sh.BSn - 1) / sh.BSn
	tg.Shape, tg.T, tg.N, tg.D, tg.NBt, tg.NBn = sh, s.T, s.N, s.D, nbt, nbn
	tg.activePerFeat = resizeInts(tg.activePerFeat, s.D)
	tg.spikesPerFeat = resizeInts(tg.spikesPerFeat, s.D)
	tg.activePerRow = resizeInts(tg.activePerRow, nbt*nbn)
	tg.activeBundles, tg.spikes = 0, 0

	// A bundle holds at most Volume spikes, so Len(Volume) planes count it
	// without overflow; a carry past the last plane would index out of
	// range rather than wrap.
	var planeBuf [bits.UintSize]uint64
	planes := planeBuf[:bits.Len(uint(sh.Volume()))]
	words, wpr := s.Words(), s.WordsPerRow()
	apf, spf := tg.activePerFeat, tg.spikesPerFeat
	for bt := 0; bt < nbt; bt++ {
		t0, t1 := bt*sh.BSt, min((bt+1)*sh.BSt, s.T)
		for bn := 0; bn < nbn; bn++ {
			n0, n1 := bn*sh.BSn, min((bn+1)*sh.BSn, s.N)
			var nab, spikes int
			for wi := 0; wi < wpr; wi++ {
				clear(planes)
				for t := t0; t < t1; t++ {
					for i := (t*s.N+n0)*wpr + wi; i < (t*s.N+n1)*wpr; i += wpr {
						for p, c := 0, words[i]; c != 0; p++ {
							planes[p], c = planes[p]^c, planes[p]&c
						}
					}
				}
				var active uint64
				for p, pl := range planes {
					active |= pl
					spikes += bits.OnesCount64(pl) << p
					for m := pl; m != 0; m &= m - 1 {
						spf[wi<<6+bits.TrailingZeros64(m)] += 1 << p
					}
				}
				nab += bits.OnesCount64(active)
				for m := active; m != 0; m &= m - 1 {
					apf[wi<<6+bits.TrailingZeros64(m)]++
				}
			}
			tg.activePerRow[bt*nbn+bn] = nab
			tg.activeBundles += nab
			tg.spikes += spikes
		}
	}
}

// Counts returns the L0 tag of every bundle of s under sh: element
// (bt·NBn+bn)·D+d is the number of spikes in bundle (bt, bn) of feature d.
// It is one CountBlock per (bundle, feature) pair, for the readers that
// need each tag rather than Retag's reductions of them: the structured BSA
// loss, and the references the fused scan is tested against.
func Counts(s *spike.Tensor, sh Shape) []int {
	sh.validate()
	nbt := (s.T + sh.BSt - 1) / sh.BSt
	nbn := (s.N + sh.BSn - 1) / sh.BSn
	counts := make([]int, nbt*nbn*s.D)
	for bt := 0; bt < nbt; bt++ {
		for bn := 0; bn < nbn; bn++ {
			base := (bt*nbn + bn) * s.D
			for d := 0; d < s.D; d++ {
				counts[base+d] = s.CountBlock(bt*sh.BSt, (bt+1)*sh.BSt, bn*sh.BSn, (bn+1)*sh.BSn, d)
			}
		}
	}
	return counts
}

// TotalBundles returns the number of bundles per feature times D.
func (tg *Tags) TotalBundles() int { return tg.NBt * tg.NBn * tg.D }

// ActiveBundles returns the total number of active bundles.
func (tg *Tags) ActiveBundles() int { return tg.activeBundles }

// BundleDensity is the fraction of bundles that are active — the "TTB
// density" reported in Fig. 6.
func (tg *Tags) BundleDensity() float64 {
	return float64(tg.ActiveBundles()) / float64(tg.TotalBundles())
}

// SpikeCount returns the total number of spikes (the Σ of all tags), which
// equals the L_bsp contribution of this tensor (Eq. 10).
func (tg *Tags) SpikeCount() int { return tg.spikes }

// ActivePerFeature returns, for each feature d, the number of active bundles
// in its column. This is the per-feature statistic histogrammed in Fig. 5
// and the column sparsity Alg. 1 thresholds on.
func (tg *Tags) ActivePerFeature() []int {
	return tg.ActivePerFeatureInto(nil)
}

// ActivePerFeatureInto is ActivePerFeature writing into dst (resized and
// reused when capacity allows).
func (tg *Tags) ActivePerFeatureInto(dst []int) []int {
	return append(dst[:0], tg.activePerFeat...)
}

// SpikesPerFeature returns the raw spike count per feature column.
func (tg *Tags) SpikesPerFeature() []int {
	return slices.Clone(tg.spikesPerFeat)
}

// ActivePerRow returns n_ab for each bundle row (bt, bn): the number of
// features whose bundle in that row is active. This is the quantity ECP
// compares against the pruning threshold θ_p (§5.1).
func (tg *Tags) ActivePerRow() []int {
	return slices.Clone(tg.activePerRow)
}

// FeatureActivityHistogram buckets features by their active-bundle count
// into nBuckets equal ranges over [0, maxActive], returning the fraction of
// features per bucket — the "ratio of features vs # active bundles"
// distribution of Fig. 5.
func (tg *Tags) FeatureActivityHistogram(nBuckets int) []float64 {
	maxA := tg.NBt * tg.NBn
	hist := make([]float64, nBuckets)
	for _, a := range tg.activePerFeat {
		b := a * nBuckets / (maxA + 1)
		if b >= nBuckets {
			b = nBuckets - 1
		}
		hist[b]++
	}
	for i := range hist {
		hist[i] /= float64(tg.D)
	}
	return hist
}

// ZeroFeatureFraction returns the fraction of features with no active
// bundle at all (52.2% for Model 1 with BSA in Fig. 5), which enables
// structured pruning of their weights.
func (tg *Tags) ZeroFeatureFraction() float64 {
	var z int
	for _, a := range tg.activePerFeat {
		if a == 0 {
			z++
		}
	}
	return float64(z) / float64(tg.D)
}

// StratifyResult is the output of Alg. 1: the feature-index buffers R_D and
// R_S routing each input feature's bundles (and the matching weight rows) to
// the dense or sparse core.
type StratifyResult struct {
	Theta          int   // threshold used
	Dense, Sparse  []int // feature indices (ascending)
	DenseSpikes    int   // spikes routed to the dense core
	SparseSpikes   int
	DenseBundles   int // active bundles routed to the dense core
	SparseBundles  int
	BundlesPerFeat int // total bundles per feature column
}

// StratifyScratch holds the sort buffer of the balancing stratifier so
// steady-state simulation loops can run it without allocating.
type StratifyScratch struct {
	sorted []int
}

// Stratify implements Alg. 1: feature i goes to the dense set when its
// column's active-bundle count exceeds θ_s, otherwise to the sparse set.
func Stratify(tg *Tags, theta int) StratifyResult {
	var res StratifyResult
	StratifyInto(tg, theta, &res)
	return res
}

// StratifyInto is Stratify reusing the index slices already held by res.
func StratifyInto(tg *Tags, theta int, res *StratifyResult) {
	*res = StratifyResult{
		Theta: theta, BundlesPerFeat: tg.NBt * tg.NBn,
		Dense: res.Dense[:0], Sparse: res.Sparse[:0],
	}
	for d, active := range tg.activePerFeat {
		if active > theta {
			res.Dense = append(res.Dense, d)
			res.DenseSpikes += tg.spikesPerFeat[d]
			res.DenseBundles += active
		} else {
			res.Sparse = append(res.Sparse, d)
			res.SparseSpikes += tg.spikesPerFeat[d]
			res.SparseBundles += active
		}
	}
}

// DenseFraction returns the fraction of features routed to the dense core.
func (r StratifyResult) DenseFraction() float64 {
	total := len(r.Dense) + len(r.Sparse)
	if total == 0 {
		return 0
	}
	return float64(len(r.Dense)) / float64(total)
}

// DenseDensity returns the mean bundle density of the dense partition (the
// "stratified down" density of Fig. 6); SparseDensity the sparse partition's.
func (r StratifyResult) DenseDensity() float64 {
	if len(r.Dense) == 0 {
		return 0
	}
	return float64(r.DenseBundles) / float64(len(r.Dense)*r.BundlesPerFeat)
}

// SparseDensity returns the mean bundle density of the sparse partition.
func (r StratifyResult) SparseDensity() float64 {
	if len(r.Sparse) == 0 {
		return 0
	}
	return float64(r.SparseBundles) / float64(len(r.Sparse)*r.BundlesPerFeat)
}

// StratifyForSplit picks the θ_s that routes approximately targetDenseFrac
// of the features to the dense core — the per-layer balancing strategy of
// §6.5.1 — and returns the resulting stratification.
func StratifyForSplit(tg *Tags, targetDenseFrac float64) StratifyResult {
	var res StratifyResult
	StratifyForSplitInto(tg, targetDenseFrac, &StratifyScratch{}, &res)
	return res
}

// StratifyForSplitInto is StratifyForSplit reusing scratch buffers. The
// per-feature counts are sorted ascending (a non-boxing slices.Sort) and
// indexed from the top, which selects the exact θ of the descending-order
// formulation: the k-th most active feature's count sits at sorted[len-k].
func StratifyForSplitInto(tg *Tags, targetDenseFrac float64, sc *StratifyScratch, res *StratifyResult) {
	sc.sorted = tg.ActivePerFeatureInto(sc.sorted)
	slices.Sort(sc.sorted)
	n := len(sc.sorted)
	k := int(targetDenseFrac*float64(n) + 0.5)
	var theta int
	switch {
	case k <= 0:
		theta = sc.sorted[n-1] // nothing dense
	case k >= n:
		theta = -1 // everything dense
	default:
		theta = sc.sorted[n-k] - 1
		if theta < 0 {
			// Zero-activity feature columns never justify dense-core slots:
			// keep them on the sparse side even when the target asks for
			// more dense features than there are active ones.
			theta = 0
		}
	}
	StratifyInto(tg, theta, res)
}
