package bundle

import (
	"fmt"
	"math"

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
	d := 0
	for _, r := range rs {
		d += int(r.Features)
	}
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
// reduced to what the stratifier (Alg. 1) and the dense and sparse core
// models read. They read the per-feature active-bundle counts only as a
// multiset — the dense core sums min(count, tiles) over features, the sparse
// core reads totals, and Alg. 1 tests count > θ_s and sums spikes — so Runs
// holds each count that occurs once. A stratification at θ is then a cut of
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

// RowActivity is n_ab, the number of active bundles across all features, of
// every bundle row (bt, bn) of one tensor under one shape: the quantity ECP
// compares against its threshold (§5.1). It is immutable once built.
type RowActivity struct {
	Shape    Shape
	T, N     int
	NBt, NBn int
	PerRow   []int32 // n_ab of row (bt, bn) at bt·NBn+bn
}

// Kept returns how many bundle rows survive ECP at θ (n_ab ≥ θ) and how
// many token-time slots they cover.
func (r *RowActivity) Kept(theta int) (rows, tokens int) {
	sh := r.Shape
	for bt := 0; bt < r.NBt; bt++ {
		ht := min((bt+1)*sh.BSt, r.T) - bt*sh.BSt
		for bn, nab := range r.PerRow[bt*r.NBn : (bt+1)*r.NBn] {
			if int(nab) >= theta {
				rows++
				tokens += ht * (min((bn+1)*sh.BSn, r.N) - bn*sh.BSn)
			}
		}
	}
	return rows, tokens
}

// KeptRowsUnder counts the bundle rows of shape sh whose first token-time
// slot lies in a row ECP keeps at θ: the attention core's dispatch units
// when it bundles under sh while ECP pruned under r.Shape. For sh equal to
// r.Shape it is Kept's row count.
func (r *RowActivity) KeptRowsUnder(theta int, sh Shape) int {
	sh.validate()
	var rows int
	for t := 0; t < r.T; t += sh.BSt {
		base := t / r.Shape.BSt * r.NBn
		for n := 0; n < r.N; n += sh.BSn {
			if int(r.PerRow[base+n/r.Shape.BSn]) >= theta {
				rows++
			}
		}
	}
	return rows
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
// RowActivity, reusing its tag and counting buffers from one tensor to the
// next. What it returns owns its memory. It is not safe for concurrent use.
type ActivityBuilder struct {
	tags          Tags
	feats, spikes []int // per active-bundle count
}

// Activity tags s under sh and reduces the per-feature counts to runs.
func (b *ActivityBuilder) Activity(s *spike.Tensor, sh Shape) *Activity {
	b.tags.Retag(s, sh)
	return b.reduce(&b.tags)
}

// Rows tags s under sh and keeps its per-row counts n_ab.
func (b *ActivityBuilder) Rows(s *spike.Tensor, sh Shape) *RowActivity {
	b.tags.Retag(s, sh)
	tg := &b.tags
	r := &RowActivity{Shape: sh, T: tg.T, N: tg.N, NBt: tg.NBt, NBn: tg.NBn,
		PerRow: make([]int32, len(tg.activePerRow))}
	for i, nab := range tg.activePerRow {
		r.PerRow[i] = int32(nab)
	}
	return r
}

// reduce counts the features and spikes of every active-bundle count in
// [0, NBt·NBn] — one pass over the features, no sort — and lists the counts
// that occur in ascending order.
func (b *ActivityBuilder) reduce(tg *Tags) *Activity {
	if tg.spikes > math.MaxUint32 {
		panic(fmt.Sprintf("bundle: %d spikes overflow the 32-bit counts of an Activity", tg.spikes))
	}
	a := &Activity{Shape: tg.Shape, T: tg.T, N: tg.N, D: tg.D, NBt: tg.NBt, NBn: tg.NBn,
		Spikes: tg.spikes, ActiveBundles: tg.activeBundles}
	b.feats = resizeInts(b.feats, tg.NBt*tg.NBn+1)
	b.spikes = resizeInts(b.spikes, tg.NBt*tg.NBn+1)
	distinct := 0
	for d, act := range tg.activePerFeat {
		if b.feats[act] == 0 {
			distinct++
		}
		b.feats[act]++
		b.spikes[act] += tg.spikesPerFeat[d]
	}
	a.Runs = make(Runs, 0, distinct)
	for act, f := range b.feats {
		if f > 0 {
			a.Runs = append(a.Runs, Run{Active: uint32(act), Features: uint32(f), Spikes: uint32(b.spikes[act])})
		}
	}
	return a
}
