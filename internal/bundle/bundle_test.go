package bundle

import (
	"testing"
	"testing/quick"

	"repro/internal/spike"
	"repro/internal/tensor"
)

func randomSpikes(seed uint64, T, N, D int, p float64) *spike.Tensor {
	rng := tensor.NewRNG(seed)
	s := spike.NewTensor(T, N, D)
	for t := 0; t < T; t++ {
		for n := 0; n < N; n++ {
			for d := 0; d < D; d++ {
				if rng.Float64() < p {
					s.Set(t, n, d, true)
				}
			}
		}
	}
	return s
}

func TestTagCountsMatchBlocks(t *testing.T) {
	s := spike.NewTensor(4, 6, 3)
	s.Set(0, 0, 1, true)
	s.Set(1, 1, 1, true)
	s.Set(3, 5, 2, true)
	sh := Shape{BSt: 2, BSn: 2}
	a := Tag(s, sh)
	if a.NBt != 2 || a.NBn != 3 {
		t.Fatalf("grid %dx%d", a.NBt, a.NBn)
	}
	counts := Counts(s, sh) // element (bt·NBn+bn)·D+d
	if got := counts[(0*3+0)*3+1]; got != 2 {
		t.Fatalf("bundle (0,0,1)=%d want 2", got)
	}
	if got := counts[(1*3+2)*3+2]; got != 1 {
		t.Fatalf("bundle (1,2,2)=%d want 1", got)
	}
	if a.ActiveBundles != 2 {
		t.Fatalf("active=%d", a.ActiveBundles)
	}
	if a.Spikes != 3 {
		t.Fatalf("spikes=%d", a.Spikes)
	}
}

// Property: Σ tags = total spikes, for any shape (Eq. 10 consistency).
func TestTagSpikeConservation(t *testing.T) {
	f := func(seed uint64) bool {
		rng := tensor.NewRNG(seed)
		T, N, D := 1+rng.Intn(8), 1+rng.Intn(10), 1+rng.Intn(6)
		s := randomSpikes(seed+1, T, N, D, 0.3)
		sh := Shape{BSt: 1 + rng.Intn(4), BSn: 1 + rng.Intn(4)}
		return Tag(s, sh).Spikes == s.Count()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestBundleDensityBounds(t *testing.T) {
	s := randomSpikes(4, 4, 8, 16, 0.1)
	bd := Tag(s, DefaultShape).BundleDensity()
	if bd < s.Density() || bd > 1 {
		// bundle density is always ≥ spike density (a spike activates a
		// whole bundle) and ≤ 1.
		t.Fatalf("bundle density %v vs spike density %v", bd, s.Density())
	}
}

func TestActivePerFeatureAndRowConsistency(t *testing.T) {
	s := randomSpikes(5, 6, 9, 5, 0.2)
	sh := Shape{BSt: 3, BSn: 2}
	a := Tag(s, sh)
	var b ActivityBuilder
	features, _, sumF := a.Runs.Totals()
	var sumR int
	for _, v := range b.Rows(s, sh).PerRow {
		sumR += int(v)
	}
	if sumF != a.ActiveBundles || sumR != a.ActiveBundles || features != a.D {
		t.Fatalf("sums %d %d want %d over %d features, got %d", sumF, sumR, a.ActiveBundles, a.D, features)
	}
}

func TestFeatureActivityHistogramSumsToOne(t *testing.T) {
	s := randomSpikes(6, 8, 8, 32, 0.05)
	h := Tag(s, DefaultShape).FeatureActivityHistogram(10)
	var sum float64
	for _, v := range h {
		sum += v
	}
	if sum < 0.999 || sum > 1.001 {
		t.Fatalf("histogram sums to %v", sum)
	}
}

func TestZeroFeatureFraction(t *testing.T) {
	s := spike.NewTensor(2, 2, 4)
	s.Set(0, 0, 1, true) // only feature 1 active
	if got := Tag(s, Shape{BSt: 2, BSn: 2}).ZeroFeatureFraction(); got != 0.75 {
		t.Fatalf("zero frac %v want 0.75", got)
	}
}

func TestStratifyPartitionsFeatures(t *testing.T) {
	s := randomSpikes(7, 4, 8, 24, 0.15)
	res := Stratify(Tag(s, DefaultShape), 2)
	if res.DenseFeatures+res.SparseFeatures != 24 {
		t.Fatalf("partition size %d+%d", res.DenseFeatures, res.SparseFeatures)
	}
	// Each side holds what routing every feature by its own count gives.
	if want := refStratify(newRefTags(s, DefaultShape), 2); res != want {
		t.Fatalf("stratification %+v, per-feature routing gives %+v", res, want)
	}
	// Spikes are conserved across the split.
	if res.DenseSpikes+res.SparseSpikes != s.Count() {
		t.Fatalf("spike conservation: %d+%d != %d", res.DenseSpikes, res.SparseSpikes, s.Count())
	}
}

func TestStratifyDensityOrdering(t *testing.T) {
	// After stratification the dense partition must be denser than the
	// sparse partition (Fig. 6b).
	s := randomSpikes(8, 8, 8, 64, 0.08)
	res := Stratify(Tag(s, DefaultShape), 3)
	if res.DenseFeatures == 0 || res.SparseFeatures == 0 {
		t.Skip("degenerate split for this seed")
	}
	if res.DenseDensity() <= res.SparseDensity() {
		t.Fatalf("dense %v ≤ sparse %v", res.DenseDensity(), res.SparseDensity())
	}
}

func TestStratifyExtremes(t *testing.T) {
	s := randomSpikes(9, 4, 4, 16, 0.3)
	a := Tag(s, DefaultShape)
	all := Stratify(a, -1)
	if all.SparseFeatures != 0 || all.DenseFeatures != a.D {
		t.Fatalf("θ=-1 must route everything dense, got %d dense %d sparse", all.DenseFeatures, all.SparseFeatures)
	}
	none := Stratify(a, a.NBt*a.NBn)
	if none.DenseFeatures != 0 || none.SparseFeatures != a.D {
		t.Fatalf("θ=max must route everything sparse, got %d dense %d sparse", none.DenseFeatures, none.SparseFeatures)
	}
}

func TestStratifyForSplitHitsTarget(t *testing.T) {
	s := randomSpikes(10, 8, 16, 128, 0.1)
	a := Tag(s, DefaultShape)
	for _, target := range []float64{0.25, 0.5, 0.75} {
		res := StratifyForSplit(a, target)
		got := res.DenseFraction()
		if got < target-0.2 || got > target+0.2 {
			t.Fatalf("target %v got %v", target, got)
		}
	}
	if StratifyForSplit(a, 0).DenseFraction() > 0.05 {
		t.Fatal("target 0 should route ~nothing dense")
	}
	if StratifyForSplit(a, 1).DenseFraction() < 0.95 {
		t.Fatal("target 1 should route ~everything dense")
	}
}

func TestShapeValidateAndVolume(t *testing.T) {
	if (Shape{BSt: 4, BSn: 2}).Volume() != 8 {
		t.Fatal("volume")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on zero shape")
		}
	}()
	Tag(spike.NewTensor(1, 1, 1), Shape{})
}
