package bundle

import (
	"testing"
	"testing/quick"

	"repro/internal/spike"
	"repro/internal/tensor"
)

func TestECPErrorBoundHolds(t *testing.T) {
	// The paper's central claim for ECP: every attention-map entry produced
	// by a pruned Q row is strictly below θ_p,Q (§5.1).
	f := func(seed uint64) bool {
		rng := tensor.NewRNG(seed)
		T, N, D := 4, 8, 16
		q := randomSpikes(seed+1, T, N, D, 0.05+rng.Float64()*0.2)
		k := randomSpikes(seed+2, T, N, D, 0.05+rng.Float64()*0.2)
		cfg := ECPConfig{Shape: Shape{BSt: 2, BSn: 2}, ThetaQ: 1 + rng.Intn(8), ThetaK: 1 + rng.Intn(8)}
		qKeep, _, _ := cfg.Prune(q, k)
		return MaxScoreOfPruned(q, k, qKeep) < cfg.ThetaQ
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestECPThresholdZeroKeepsEverything(t *testing.T) {
	q := randomSpikes(1, 4, 8, 16, 0.1)
	k := randomSpikes(2, 4, 8, 16, 0.1)
	cfg := ECPConfig{Shape: DefaultShape, ThetaQ: 0, ThetaK: 0}
	qKeep, kKeep, stats := cfg.Prune(q, k)
	if stats.QKeepFrac() != 1 || stats.KKeepFrac() != 1 {
		t.Fatalf("keep fracs %v %v", stats.QKeepFrac(), stats.KKeepFrac())
	}
	for t2 := range qKeep {
		for n := range qKeep[t2] {
			if !qKeep[t2][n] || !kKeep[t2][n] {
				t.Fatal("θ=0 must keep all tokens")
			}
		}
	}
}

func TestECPHugeThresholdPrunesEverything(t *testing.T) {
	q := randomSpikes(3, 4, 8, 16, 0.1)
	k := randomSpikes(4, 4, 8, 16, 0.1)
	cfg := ECPConfig{Shape: DefaultShape, ThetaQ: 1 << 20, ThetaK: 1 << 20}
	_, _, stats := cfg.Prune(q, k)
	if stats.QTokensKept != 0 || stats.KTokensKept != 0 {
		t.Fatalf("kept %d/%d", stats.QTokensKept, stats.KTokensKept)
	}
	if stats.ScoreWorkFrac() != 0 {
		t.Fatalf("work frac %v", stats.ScoreWorkFrac())
	}
}

func TestECPMonotoneInThreshold(t *testing.T) {
	q := randomSpikes(5, 8, 16, 32, 0.08)
	k := randomSpikes(6, 8, 16, 32, 0.08)
	prev := 1.0
	for theta := 0; theta <= 20; theta += 4 {
		cfg := ECPConfig{Shape: DefaultShape, ThetaQ: theta, ThetaK: theta}
		_, _, stats := cfg.Prune(q, k)
		if stats.QKeepFrac() > prev+1e-12 {
			t.Fatalf("keep fraction must be non-increasing in θ: %v after %v", stats.QKeepFrac(), prev)
		}
		prev = stats.QKeepFrac()
	}
}

func TestECPCompoundingWorkFraction(t *testing.T) {
	// Fig. 7's arithmetic: if 20% of Q rows and 10% of K rows survive, only
	// 2% of the score work remains.
	s := ECPStats{QTokensKept: 20, QTokens: 100, KTokensKept: 10, KTokens: 100}
	if got := s.ScoreWorkFrac(); got < 0.0199 || got > 0.0201 {
		t.Fatalf("work frac %v want 0.02", got)
	}
}

func TestECPEmptyTensorFullyPruned(t *testing.T) {
	q := spike.NewTensor(4, 8, 16)
	k := spike.NewTensor(4, 8, 16)
	cfg := ECPConfig{Shape: DefaultShape, ThetaQ: 1, ThetaK: 1}
	_, _, stats := cfg.Prune(q, k)
	if stats.QTokensKept != 0 {
		t.Fatal("silent Q must be fully pruned at θ=1")
	}
}

func TestECPPruneFnAccumulatesStats(t *testing.T) {
	q := randomSpikes(7, 4, 8, 16, 0.15)
	k := randomSpikes(8, 4, 8, 16, 0.15)
	var stats ECPStats
	fn := ECPConfig{Shape: DefaultShape, ThetaQ: 2, ThetaK: 2}.PruneFn(&stats)
	fn(q, k)
	fn(q, k)
	if stats.QTokens != 2*4*8 {
		t.Fatalf("accumulated QTokens=%d", stats.QTokens)
	}
	if stats.QRowsTotal == 0 {
		t.Fatal("rows not accumulated")
	}
}

func TestECPRowGranularity(t *testing.T) {
	// All tokens of one bundle row share a fate: either all kept or all
	// pruned (the "structured" part of structured pruning).
	q := randomSpikes(9, 8, 8, 16, 0.1)
	k := randomSpikes(10, 8, 8, 16, 0.1)
	sh := Shape{BSt: 4, BSn: 4}
	qKeep, _, _ := ECPConfig{Shape: sh, ThetaQ: 3, ThetaK: 3}.Prune(q, k)
	for bt := 0; bt < 2; bt++ {
		for bn := 0; bn < 2; bn++ {
			first := qKeep[bt*4][bn*4]
			for t2 := bt * 4; t2 < (bt+1)*4; t2++ {
				for n := bn * 4; n < (bn+1)*4; n++ {
					if qKeep[t2][n] != first {
						t.Fatalf("row (%d,%d) not uniform", bt, bn)
					}
				}
			}
		}
	}
}

// TestECPMatchesBundleTags checks Prune's masks and statistics against n_ab
// recounted from the per-bundle tags (Counts), on token grids that bundle
// shapes do not divide evenly.
func TestECPMatchesBundleTags(t *testing.T) {
	q := randomSpikes(11, 7, 10, 70, 0.05)
	k := randomSpikes(12, 7, 10, 70, 0.08)
	for _, sh := range []Shape{{BSt: 4, BSn: 2}, {BSt: 2, BSn: 3}, {BSt: 1, BSn: 4}, {BSt: 8, BSn: 8}} {
		for _, theta := range []int{0, 1, 5, 20} {
			c := ECPConfig{Shape: sh, ThetaQ: theta, ThetaK: theta + 2}
			qKeep, kKeep, st := c.Prune(q, k)
			for _, side := range []struct {
				s     *spike.Tensor
				keep  [][]bool
				theta int
				rows  int
				toks  int
			}{{q, qKeep, c.ThetaQ, st.QRowsKept, st.QTokensKept}, {k, kKeep, c.ThetaK, st.KRowsKept, st.KTokensKept}} {
				counts := Counts(side.s, sh)
				nbn := (side.s.N + sh.BSn - 1) / sh.BSn
				nab := func(t, n int) int {
					row := (t/sh.BSt*nbn + n/sh.BSn) * side.s.D
					var a int
					for _, c := range counts[row : row+side.s.D] {
						if c > 0 {
							a++
						}
					}
					return a
				}
				var rows, toks int
				for t2 := 0; t2 < side.s.T; t2++ {
					for n := 0; n < side.s.N; n++ {
						kept := nab(t2, n) >= side.theta
						if side.keep[t2][n] != kept {
							t.Fatalf("%+v θ=%d: token (%d,%d) kept %v, want %v", sh, side.theta, t2, n, side.keep[t2][n], kept)
						}
						if kept {
							toks++
							if t2%sh.BSt == 0 && n%sh.BSn == 0 {
								rows++
							}
						}
					}
				}
				if rows != side.rows || toks != side.toks {
					t.Fatalf("%+v θ=%d: stats %d rows %d tokens, want %d %d", sh, side.theta, side.rows, side.toks, rows, toks)
				}
			}
		}
	}
}
