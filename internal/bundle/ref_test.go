package bundle

// Reference implementations of every statistic Retag caches, and the tests
// that pin the fused bit-sliced scan to them. The references are the
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

// checkTags fails t unless tg, as Retag left it for s under sh, matches the
// reference in its geometry and every cached statistic. ActivePerFeatureInto
// gets a short buffer of stale values, so it must resize it and overwrite
// every element.
func checkTags(t testing.TB, what string, tg *Tags, s *spike.Tensor, sh Shape) {
	t.Helper()
	ref := newRefTags(s, sh)
	if tg.Shape != sh || tg.T != s.T || tg.N != s.N || tg.D != s.D || tg.NBt != ref.NBt || tg.NBn != ref.NBn {
		t.Fatalf("%s: geometry %+v %dx%dx%d grid %dx%d, want %+v %dx%dx%d grid %dx%d", what,
			tg.Shape, tg.T, tg.N, tg.D, tg.NBt, tg.NBn, sh, s.T, s.N, s.D, ref.NBt, ref.NBn)
	}
	stale := append(make([]int, 0, 2*tg.D+8), -7, -7, -7)
	vecs := []struct {
		name      string
		got, want []int
	}{
		{"ActivePerFeature", tg.ActivePerFeature(), ref.ActivePerFeature()},
		{"ActivePerFeatureInto", tg.ActivePerFeatureInto(stale), ref.ActivePerFeature()},
		{"SpikesPerFeature", tg.SpikesPerFeature(), ref.SpikesPerFeature()},
		{"ActivePerRow", tg.ActivePerRow(), ref.ActivePerRow()},
	}
	for _, v := range vecs {
		if !slices.Equal(v.got, v.want) {
			t.Fatalf("%s: %s = %v, want %v", what, v.name, v.got, v.want)
		}
	}
	if got, want := tg.ActiveBundles(), ref.ActiveBundles(); got != want {
		t.Fatalf("%s: ActiveBundles=%d want %d", what, got, want)
	}
	if got, want := tg.SpikeCount(), ref.SpikeCount(); got != want || got != s.Count() {
		t.Fatalf("%s: SpikeCount=%d want %d (tensor holds %d)", what, got, want, s.Count())
	}
}

// TestRetagMatchesReference sweeps the bundle shapes of Fig. 16 and more,
// feature widths on both sides of the 64-bit word boundary, exact and
// ragged token grids, and empty, sparse and saturated tensors, all through
// one reused Tags. Saturation fills every bundle to its volume: 56 spikes
// at 4x14 and 64 at 8x8, so too few counter planes cannot go unnoticed.
func TestRetagMatchesReference(t *testing.T) {
	shapes := []Shape{{1, 1}, {1, 2}, {2, 1}, {2, 2}, {3, 2}, {4, 2}, {4, 4}, {2, 7}, {4, 14}, {8, 8}}
	var tg Tags
	seed := uint64(1)
	for _, sh := range shapes {
		grids := [][2]int{{sh.BSt, sh.BSn}, {2*sh.BSt + 1, 2*sh.BSn + 1}, {3 * sh.BSt, sh.BSn + 1}}
		for _, g := range grids {
			for _, d := range []int{1, 63, 64, 65, 130} {
				for _, p := range []float64{0, 0.12, 1} {
					s := randomSpikes(seed, g[0], g[1], d, p)
					seed++
					tg.Retag(s, sh)
					checkTags(t, fmt.Sprintf("shape %dx%d, tensor %dx%dx%d, density %g",
						sh.BSt, sh.BSn, g[0], g[1], d, p), &tg, s, sh)
				}
			}
		}
	}
}

// TestRetagReuseAcrossSizes retags one Tags from a large tensor to a small
// one and back, so any buffer Retag failed to resize or clear would leak
// the previous tensor's statistics.
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
	var tg Tags
	for _, st := range steps {
		tg.Retag(st.s, st.sh)
		checkTags(t, st.name, &tg, st.s, st.sh)
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
		checkTags(t, "fuzz", Tag(s, sh), s, sh)
	})
}
