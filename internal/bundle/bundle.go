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

	"repro/internal/spike"
)

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

// Tag computes the bundle activity of s under the given bundle shape.
func Tag(s *spike.Tensor, sh Shape) *Activity {
	var b ActivityBuilder
	return b.Activity(s, sh)
}

// Counts returns the L0 tag of every bundle of s under sh: element
// (bt·NBn+bn)·D+d is the number of spikes in bundle (bt, bn) of feature d.
// It is one CountBlock per (bundle, feature) pair, for the readers that
// need each tag rather than an Activity's reductions of them: the structured
// BSA loss, and the references the builder's scan is tested against.
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

// StratifyResult is the output of Alg. 1 at one threshold: how many
// feature columns it routes to each core (R_D and R_S, with the matching
// weight rows), and the spikes and active bundles they carry.
type StratifyResult struct {
	Theta                         int // threshold used
	DenseFeatures, SparseFeatures int
	DenseSpikes, SparseSpikes     int
	DenseBundles, SparseBundles   int // active bundles
	BundlesPerFeat                int // total bundles per feature column
}

// Stratify implements Alg. 1: a feature goes to the dense set when its
// column's active-bundle count exceeds θ_s, otherwise to the sparse set. The
// rule reads the count alone, so the dense set is the runs above the cut.
func Stratify(a *Activity, theta int) StratifyResult {
	k := a.Runs.Cut(theta)
	res := StratifyResult{Theta: theta, BundlesPerFeat: a.NBt * a.NBn}
	res.DenseFeatures, res.DenseSpikes, res.DenseBundles = a.Runs[k:].Totals()
	res.SparseFeatures, res.SparseSpikes, res.SparseBundles = a.Runs[:k].Totals()
	return res
}

// DenseFraction returns the fraction of features routed to the dense core.
func (r StratifyResult) DenseFraction() float64 {
	total := r.DenseFeatures + r.SparseFeatures
	if total == 0 {
		return 0
	}
	return float64(r.DenseFeatures) / float64(total)
}

// DenseDensity returns the mean bundle density of the dense partition (the
// "stratified down" density of Fig. 6); SparseDensity the sparse partition's.
func (r StratifyResult) DenseDensity() float64 {
	if r.DenseFeatures == 0 {
		return 0
	}
	return float64(r.DenseBundles) / float64(r.DenseFeatures*r.BundlesPerFeat)
}

// SparseDensity returns the mean bundle density of the sparse partition.
func (r StratifyResult) SparseDensity() float64 {
	if r.SparseFeatures == 0 {
		return 0
	}
	return float64(r.SparseBundles) / float64(r.SparseFeatures*r.BundlesPerFeat)
}

// StratifyForSplit picks the θ_s that routes approximately targetDenseFrac
// of the features to the dense core — the per-layer balancing strategy of
// §6.5.1, Runs.SplitTheta — and returns the resulting stratification.
func StratifyForSplit(a *Activity, targetDenseFrac float64) StratifyResult {
	return Stratify(a, a.Runs.SplitTheta(targetDenseFrac))
}
