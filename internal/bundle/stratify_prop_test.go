package bundle

// Property tests for the Alg. 1 stratifier over randomized traces: the
// dense/sparse partition must hold, side by side, what routing every feature
// by its own active-bundle count gives (so it is disjoint and exhaustive)
// for every threshold, and the §6.5.1 balancing strategy must land the
// dense-core feature fraction where its quantile math says it will —
// exactly, once threshold ties and zero-activity columns are accounted for.

import (
	"sort"
	"testing"

	"repro/internal/spike"
	"repro/internal/tensor"
)

// randomTrace draws a tensor with randomized geometry and density, and a
// bundle shape, from rng.
func randomTrace(rng *tensor.RNG) (*spike.Tensor, Shape) {
	T := 1 + rng.Intn(8)
	N := 1 + rng.Intn(24)
	D := 8 + rng.Intn(120)
	p := 0.02 + 0.4*rng.Float64()
	s := randomSpikes(rng.Uint64(), T, N, D, p)
	sh := Shape{BSt: 1 + rng.Intn(4), BSn: 1 + rng.Intn(4)}
	return s, sh
}

func TestStratifyPartitionDisjointExhaustiveProperty(t *testing.T) {
	rng := tensor.NewRNG(2025)
	for trial := 0; trial < 60; trial++ {
		s, sh := randomTrace(rng)
		a := Tag(s, sh)
		theta := rng.Intn(a.NBt*a.NBn+2) - 1
		res := Stratify(a, theta)

		if want := refStratify(newRefTags(s, sh), theta); res != want {
			t.Fatalf("trial %d: θ %d: stratification %+v, per-feature routing gives %+v", trial, theta, res, want)
		}
		// Features, spikes and bundles are conserved across the split.
		if res.DenseFeatures+res.SparseFeatures != a.D {
			t.Fatalf("trial %d: features %d+%d != %d", trial, res.DenseFeatures, res.SparseFeatures, a.D)
		}
		if res.DenseSpikes+res.SparseSpikes != s.Count() {
			t.Fatalf("trial %d: spikes %d+%d != %d", trial, res.DenseSpikes, res.SparseSpikes, s.Count())
		}
		if res.DenseBundles+res.SparseBundles != a.ActiveBundles {
			t.Fatalf("trial %d: bundles %d+%d != %d", trial,
				res.DenseBundles, res.SparseBundles, a.ActiveBundles)
		}
	}
}

func TestStratifyForSplitFractionProperty(t *testing.T) {
	rng := tensor.NewRNG(4242)
	for trial := 0; trial < 60; trial++ {
		s, sh := randomTrace(rng)
		target := rng.Float64()
		res := StratifyForSplit(Tag(s, sh), target)

		ref := newRefTags(s, sh)
		if want := refStratify(ref, res.Theta); res != want {
			t.Fatalf("trial %d: θ %d: stratification %+v, per-feature routing gives %+v", trial, res.Theta, res, want)
		}
		active := ref.ActivePerFeature()
		sorted := append([]int(nil), active...)
		sort.Sort(sort.Reverse(sort.IntSlice(sorted)))
		k := int(target*float64(len(sorted)) + 0.5)

		// Exact structural contract of the balancing strategy.
		var expect int
		switch {
		case k <= 0:
			expect = 0 // θ = max activity; nothing is strictly above it
		case k >= len(sorted):
			expect = len(sorted)
		default:
			thr := sorted[k-1]
			if thr < 1 {
				thr = 1 // zero-activity columns never go dense
			}
			expect = count(active, thr)
		}
		if res.DenseFeatures != expect {
			t.Fatalf("trial %d: target %.3f dense %d want %d", trial, target, res.DenseFeatures, expect)
		}

		// Tolerance contract: the achieved fraction misses the target by at
		// most the tie mass at the threshold plus the zero-activity columns
		// the strategy refuses to route dense, plus rounding.
		if k > 0 && k < len(sorted) {
			ties := count(active, sorted[k-1]) - count(active, sorted[k-1]+1)
			zeros := count(active, 0) - count(active, 1)
			tol := (float64(ties) + float64(zeros) + 1) / float64(len(sorted))
			got := res.DenseFraction()
			if got < target-tol || got > target+tol {
				t.Fatalf("trial %d: target %.3f got %.3f beyond tolerance %.3f (ties %d zeros %d)",
					trial, target, got, tol, ties, zeros)
			}
		}
	}
}

// count returns how many values are >= thr.
func count(vals []int, thr int) int {
	var c int
	for _, v := range vals {
		if v >= thr {
			c++
		}
	}
	return c
}
