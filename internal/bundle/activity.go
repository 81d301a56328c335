package bundle

import (
	"fmt"
	"math"
	"math/bits"

	"repro/internal/spike"
)

// Run is one class of a tensor's feature columns under a bundle shape: the
// columns that share an active-bundle count, how many there are, and the
// spikes they hold together. Its 32-bit counts keep a run at 12 bytes; a
// tensor with more spikes than they count is rejected when it is reduced.
type Run struct {
	Active   uint32 // active bundles per feature column
	Features uint32 // feature columns with that count
	Spikes   uint32 // spikes over those columns
}

// Runs lists the distinct active-bundle counts of a tensor's feature
// columns in ascending order, one Run each.
type Runs []Run

// Cut returns the number of runs on the sparse side of θ_s: rs[:Cut(θ)]
// have Active ≤ θ, rs[Cut(θ):] have Active > θ.
func (rs Runs) Cut(theta int) int {
	k := len(rs)
	for k > 0 && int(rs[k-1].Active) > theta {
		k--
	}
	return k
}

// Totals returns the feature columns, spikes and active bundles the runs
// hold together.
func (rs Runs) Totals() (features, spikes, bundles int) {
	for _, r := range rs {
		features += int(r.Features)
		spikes += int(r.Spikes)
		bundles += int(r.Active) * int(r.Features)
	}
	return features, spikes, bundles
}

// SplitTheta picks the θ_s that routes approximately targetDenseFrac of the
// features to the dense core — the per-layer balancing strategy of §6.5.1.
// With the D counts sorted ascending and k = round(target·D) features wanted
// dense, θ is one below the k-th largest count, found by walking the runs
// down from the top; k ≤ 0 puts nothing dense (θ = the largest count) and
// k ≥ D everything (θ = -1).
func (rs Runs) SplitTheta(targetDenseFrac float64) int {
	if len(rs) == 0 {
		return 0
	}
	d, _, _ := rs.Totals()
	k := int(targetDenseFrac*float64(d) + 0.5)
	switch {
	case k <= 0:
		return int(rs[len(rs)-1].Active) // nothing dense
	case k >= d:
		return -1 // everything dense
	}
	i, above := len(rs)-1, 0
	for ; i > 0; i-- {
		if above += int(rs[i].Features); above >= k {
			break
		}
	}
	// Zero-activity feature columns never justify dense-core slots: keep
	// them on the sparse side even when the target asks for more dense
	// features than there are active ones.
	return max(int(rs[i].Active)-1, 0)
}

// Activity is the per-feature activity of one tensor under one bundle shape,
// reduced to what the stratifier (Alg. 1), the dense and sparse core models
// and the Fig. 5 and Fig. 6 statistics read. They read the per-feature
// active-bundle counts only as a multiset — the dense core sums
// min(count, tiles) over features, the sparse core reads totals, Alg. 1
// tests count > θ_s and sums spikes, and the figures bucket the counts —
// so Runs holds each count that occurs once. A stratification at θ is then a cut of
// Runs: the dense partition is the suffix with Active > θ and the sparse
// partition the prefix. An Activity is immutable once built; a traced
// tensor's lives in its trace's statistics memo.
type Activity struct {
	Shape         Shape
	T, N, D       int
	NBt, NBn      int
	Spikes        int
	ActiveBundles int
	Runs          Runs
}

// BundleDensity is the fraction of the tensor's bundles that are active —
// the "TTB density" reported in Fig. 6.
func (a *Activity) BundleDensity() float64 {
	return float64(a.ActiveBundles) / float64(a.NBt*a.NBn*a.D)
}

// ZeroFeatureFraction returns the fraction of features with no active
// bundle at all (52.2% for Model 1 with BSA in Fig. 5), which enables
// structured pruning of their weights.
func (a *Activity) ZeroFeatureFraction() float64 {
	var z int
	if len(a.Runs) > 0 && a.Runs[0].Active == 0 {
		z = int(a.Runs[0].Features)
	}
	return float64(z) / float64(a.D)
}

// FeatureActivityHistogram buckets features by their active-bundle count
// into nBuckets equal ranges over [0, NBt·NBn], returning the fraction of
// features per bucket — the "ratio of features vs # active bundles"
// distribution of Fig. 5.
func (a *Activity) FeatureActivityHistogram(nBuckets int) []float64 {
	hist := make([]float64, nBuckets)
	for _, r := range a.Runs {
		hist[min(int(r.Active)*nBuckets/(a.NBt*a.NBn+1), nBuckets-1)] += float64(r.Features)
	}
	for i := range hist {
		hist[i] /= float64(a.D)
	}
	return hist
}

// RowActivity is n_ab, the number of active bundles across all features, of
// every bundle row (bt, bn) of one tensor under one shape: the quantity ECP
// compares against its threshold (§5.1). It is immutable once built.
type RowActivity struct {
	Shape    Shape
	T, N     int
	NBt, NBn int
	PerRow   []int32 // n_ab of row (bt, bn) at bt·NBn+bn
}

// Kept returns how many token-time slots survive ECP at θ — the slots of
// the rows with n_ab ≥ θ — and how many bundle rows of shape sh start in a
// surviving slot: the attention core's dispatch units when it bundles under
// sh while ECP pruned under r.Shape. Under r.Shape they are the surviving
// rows.
func (r *RowActivity) Kept(theta int, sh Shape) (rows, tokens int) {
	for bt := 0; bt < r.NBt; bt++ {
		ht := min((bt+1)*r.Shape.BSt, r.T) - bt*r.Shape.BSt
		for bn, nab := range r.PerRow[bt*r.NBn : (bt+1)*r.NBn] {
			if int(nab) >= theta {
				rows++
				tokens += ht * (min((bn+1)*r.Shape.BSn, r.N) - bn*r.Shape.BSn)
			}
		}
	}
	if sh == r.Shape {
		return rows, tokens
	}
	sh.validate()
	rows = 0
	for t := 0; t < r.T; t += sh.BSt {
		base := t / r.Shape.BSt * r.NBn
		for n := 0; n < r.N; n += sh.BSn {
			if int(r.PerRow[base+n/r.Shape.BSn]) >= theta {
				rows++
			}
		}
	}
	return rows, tokens
}

// Keep expands the rows that survive θ into a T×N token keep-mask.
func (r *RowActivity) Keep(theta int) [][]bool {
	bits := make([]bool, r.T*r.N)
	keep := make([][]bool, r.T)
	for t := range keep {
		keep[t] = bits[t*r.N : (t+1)*r.N]
		base := t / r.Shape.BSt * r.NBn
		for n := range keep[t] {
			keep[t][n] = int(r.PerRow[base+n/r.Shape.BSn]) >= theta
		}
	}
	return keep
}

// ActivityBuilder tags tensors and reduces their tags to an Activity or a
// RowActivity, reusing its counting buffers from one tensor to the next.
// What it returns owns its memory. It is not safe for concurrent use.
type ActivityBuilder struct {
	// The last scan's counts: active bundles and spikes per feature column,
	// and n_ab per bundle row.
	activePerFeat, spikesPerFeat, activePerRow []int
	feats, spikes                              []int // per active-bundle count
}

// Activity tags s under sh and reduces the per-feature counts to runs.
func (b *ActivityBuilder) Activity(s *spike.Tensor, sh Shape) *Activity {
	a := b.scan(s, sh)
	b.reduce(&a)
	return &a
}

// Rows tags s under sh and keeps its per-row counts n_ab.
func (b *ActivityBuilder) Rows(s *spike.Tensor, sh Shape) *RowActivity {
	a := b.scan(s, sh)
	r := &RowActivity{Shape: sh, T: a.T, N: a.N, NBt: a.NBt, NBn: a.NBn,
		PerRow: make([]int32, len(b.activePerRow))}
	for i, nab := range b.activePerRow {
		r.PerRow[i] = int32(nab)
	}
	return r
}

// scan is the one pass over s under sh. It leaves the per-feature and
// per-row counts in b's buffers, resized and reused when their capacity
// suffices, and returns the tensor's Activity without its Runs.
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
func (b *ActivityBuilder) scan(s *spike.Tensor, sh Shape) (a Activity) {
	sh.validate()
	nbt := (s.T + sh.BSt - 1) / sh.BSt
	nbn := (s.N + sh.BSn - 1) / sh.BSn
	a.Shape, a.T, a.N, a.D, a.NBt, a.NBn = sh, s.T, s.N, s.D, nbt, nbn
	b.activePerFeat = resizeInts(b.activePerFeat, s.D)
	b.spikesPerFeat = resizeInts(b.spikesPerFeat, s.D)
	b.activePerRow = resizeInts(b.activePerRow, nbt*nbn)

	// A bundle holds at most Volume spikes, so Len(Volume) planes count it
	// without overflow; a carry past the last plane would index out of
	// range rather than wrap.
	var planeBuf [bits.UintSize]uint64
	planes := planeBuf[:bits.Len(uint(sh.Volume()))]
	words, wpr := s.Words(), s.WordsPerRow()
	apf, spf := b.activePerFeat, b.spikesPerFeat
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
			b.activePerRow[bt*nbn+bn] = nab
			a.ActiveBundles += nab
			a.Spikes += spikes
		}
	}
	return a
}

// reduce lists the runs of a, the last tensor scanned: it counts the
// features and spikes of every active-bundle count in [0, NBt·NBn] — one
// pass over the features, no sort — and keeps the counts that occur in
// ascending order.
func (b *ActivityBuilder) reduce(a *Activity) {
	if a.Spikes > math.MaxUint32 {
		panic(fmt.Sprintf("bundle: %d spikes overflow the 32-bit counts of an Activity", a.Spikes))
	}
	b.feats = resizeInts(b.feats, a.NBt*a.NBn+1)
	b.spikes = resizeInts(b.spikes, a.NBt*a.NBn+1)
	distinct := 0
	for d, act := range b.activePerFeat {
		if b.feats[act] == 0 {
			distinct++
		}
		b.feats[act]++
		b.spikes[act] += b.spikesPerFeat[d]
	}
	a.Runs = make(Runs, 0, distinct)
	for act, f := range b.feats {
		if f > 0 {
			a.Runs = append(a.Runs, Run{Active: uint32(act), Features: uint32(f), Spikes: uint32(b.spikes[act])})
		}
	}
}

// resizeInts returns dst resized to n zeroed elements, reusing its backing
// array when the capacity allows.
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
