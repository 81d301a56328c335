package bundle

// Reference implementations of every count an ActivityBuilder's scan
// leaves, and the tests that pin the fused bit-sliced scan to them. The references are the
// formulations the scan replaced: the tags come from Counts, one
// CountBlock per (bundle, feature) pair, and each statistic is its own
// dense pass over that tag grid.

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/spike"
)

// refTags is the reference tag grid: Counts[(bt·NBn+bn)·D+d] is the number
// of spikes in bundle (bt, bn) of feature d.
type refTags struct {
	NBt, NBn, D int
	Counts      []int
}

func newRefTags(s *spike.Tensor, sh Shape) *refTags {
	return &refTags{
		NBt: (s.T + sh.BSt - 1) / sh.BSt, NBn: (s.N + sh.BSn - 1) / sh.BSn, D: s.D,
		Counts: Counts(s, sh),
	}
}

func (tg *refTags) ActiveBundles() int {
	var c int
	for _, v := range tg.Counts {
		if v > 0 {
			c++
		}
	}
	return c
}

func (tg *refTags) SpikeCount() int {
	var c int
	for _, v := range tg.Counts {
		c += v
	}
	return c
}

func (tg *refTags) ActivePerFeature() []int {
	out := make([]int, tg.D)
	for b := 0; b < tg.NBt*tg.NBn; b++ {
		base := b * tg.D
		for d := 0; d < tg.D; d++ {
			if tg.Counts[base+d] > 0 {
				out[d]++
			}
		}
	}
	return out
}

func (tg *refTags) SpikesPerFeature() []int {
	out := make([]int, tg.D)
	for b := 0; b < tg.NBt*tg.NBn; b++ {
		base := b * tg.D
		for d := 0; d < tg.D; d++ {
			out[d] += tg.Counts[base+d]
		}
	}
	return out
}

func (tg *refTags) ActivePerRow() []int {
	out := make([]int, tg.NBt*tg.NBn)
	for b := range out {
		base := b * tg.D
		for d := 0; d < tg.D; d++ {
			if tg.Counts[base+d] > 0 {
				out[b]++
			}
		}
	}
	return out
}

// refStratify is Alg. 1 feature by feature: each feature column goes dense
// when its own active-bundle count exceeds θ, and its spikes and active
// bundles go with it.
func refStratify(ref *refTags, theta int) StratifyResult {
	res := StratifyResult{Theta: theta, BundlesPerFeat: ref.NBt * ref.NBn}
	spikes := ref.SpikesPerFeature()
	for d, active := range ref.ActivePerFeature() {
		if active > theta {
			res.DenseFeatures++
			res.DenseSpikes += spikes[d]
			res.DenseBundles += active
		} else {
			res.SparseFeatures++
			res.SparseSpikes += spikes[d]
			res.SparseBundles += active
		}
	}
	return res
}

// checkTags fails t unless b's scan of s under sh matches the reference in
// its geometry, every per-feature and per-row count and the totals, and
// unless the Activity reduced from it lists the reference's per-feature
// counts as runs.
func checkTags(t testing.TB, what string, b *ActivityBuilder, s *spike.Tensor, sh Shape) {
	t.Helper()
	ref := newRefTags(s, sh)
	a := b.scan(s, sh)
	if a.Shape != sh || a.T != s.T || a.N != s.N || a.D != s.D || a.NBt != ref.NBt || a.NBn != ref.NBn {
		t.Fatalf("%s: geometry %+v %dx%dx%d grid %dx%d, want %+v %dx%dx%d grid %dx%d", what,
			a.Shape, a.T, a.N, a.D, a.NBt, a.NBn, sh, s.T, s.N, s.D, ref.NBt, ref.NBn)
	}
	vecs := []struct {
		name      string
		got, want []int
	}{
		{"ActivePerFeature", b.activePerFeat, ref.ActivePerFeature()},
		{"SpikesPerFeature", b.spikesPerFeat, ref.SpikesPerFeature()},
		{"ActivePerRow", b.activePerRow, ref.ActivePerRow()},
	}
	for _, v := range vecs {
		if !slices.Equal(v.got, v.want) {
			t.Fatalf("%s: %s = %v, want %v", what, v.name, v.got, v.want)
		}
	}
	if got, want := a.ActiveBundles, ref.ActiveBundles(); got != want {
		t.Fatalf("%s: ActiveBundles=%d want %d", what, got, want)
	}
	if got, want := a.Spikes, ref.SpikeCount(); got != want || got != s.Count() {
		t.Fatalf("%s: Spikes=%d want %d (tensor holds %d)", what, got, want, s.Count())
	}
	b.reduce(&a)
	if got, want := []Run(a.Runs), refRuns(ref.ActivePerFeature(), ref.SpikesPerFeature()); !slices.Equal(got, want) {
		t.Fatalf("%s: Runs = %v, want %v", what, got, want)
	}
}

// refRuns groups per-feature counts by sorting: the runs an Activity must
// hold.
func refRuns(active, spikes []int) []Run {
	idx := make([]int, len(active))
	for i := range idx {
		idx[i] = i
	}
	slices.SortFunc(idx, func(a, b int) int { return active[a] - active[b] })
	var runs []Run
	for _, d := range idx {
		if n := len(runs); n > 0 && int(runs[n-1].Active) == active[d] {
			runs[n-1].Features++
			runs[n-1].Spikes += uint32(spikes[d])
			continue
		}
		runs = append(runs, Run{Active: uint32(active[d]), Features: 1, Spikes: uint32(spikes[d])})
	}
	return runs
}

// TestRetagMatchesReference sweeps the bundle shapes of Fig. 16 and more,
// feature widths on both sides of the 64-bit word boundary, exact and
// ragged token grids, and empty, sparse and saturated tensors, all through
// one reused ActivityBuilder. Saturation fills every bundle to its volume: 56 spikes
// at 4x14 and 64 at 8x8, so too few counter planes cannot go unnoticed.
func TestRetagMatchesReference(t *testing.T) {
	shapes := []Shape{{1, 1}, {1, 2}, {2, 1}, {2, 2}, {3, 2}, {4, 2}, {4, 4}, {2, 7}, {4, 14}, {8, 8}}
	var b ActivityBuilder
	seed := uint64(1)
	for _, sh := range shapes {
		grids := [][2]int{{sh.BSt, sh.BSn}, {2*sh.BSt + 1, 2*sh.BSn + 1}, {3 * sh.BSt, sh.BSn + 1}}
		for _, g := range grids {
			for _, d := range []int{1, 63, 64, 65, 130} {
				for _, p := range []float64{0, 0.12, 1} {
					s := randomSpikes(seed, g[0], g[1], d, p)
					seed++
					checkTags(t, fmt.Sprintf("shape %dx%d, tensor %dx%dx%d, density %g",
						sh.BSt, sh.BSn, g[0], g[1], d, p), &b, s, sh)
				}
			}
		}
	}
}

// TestRetagReuseAcrossSizes scans with one ActivityBuilder from a large
// tensor to a small one and back, so any buffer the scan failed to resize
// or clear would leak the previous tensor's statistics.
func TestRetagReuseAcrossSizes(t *testing.T) {
	big := randomSpikes(11, 9, 13, 130, 0.3)
	small := randomSpikes(12, 2, 3, 5, 0.6)
	steps := []struct {
		name string
		s    *spike.Tensor
		sh   Shape
	}{
		{"big 4x2", big, Shape{4, 2}},
		{"small 2x2", small, Shape{2, 2}},
		{"big 4x2 again", big, Shape{4, 2}},
		{"small 3x2", small, Shape{3, 2}},
		{"big 1x1", big, Shape{1, 1}},
	}
	var b ActivityBuilder
	for _, st := range steps {
		checkTags(t, st.name, &b, st.s, st.sh)
	}
}

func FuzzRetag(f *testing.F) {
	f.Add(uint64(1), uint8(4), uint8(2), uint8(9), uint8(13), uint8(130), uint8(30))
	f.Add(uint64(2), uint8(4), uint8(14), uint8(4), uint8(14), uint8(64), uint8(255))
	f.Add(uint64(3), uint8(1), uint8(1), uint8(1), uint8(1), uint8(1), uint8(0))
	f.Add(uint64(4), uint8(8), uint8(8), uint8(17), uint8(9), uint8(65), uint8(200))
	f.Fuzz(func(t *testing.T, seed uint64, bst, bsn, tt, nn, dd, density uint8) {
		sh := Shape{BSt: 1 + int(bst%16), BSn: 1 + int(bsn%16)}
		s := randomSpikes(seed, 1+int(tt%24), 1+int(nn%24), 1+int(dd)%200, float64(density)/255)
		var b ActivityBuilder
		checkTags(t, "fuzz", &b, s, sh)
	})
}
