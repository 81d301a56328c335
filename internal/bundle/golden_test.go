package bundle

// Golden reference tests pinning the exact integer outputs of the TTB
// tagging and ECP kernels on deterministic ragged-shape tensors (D not a
// multiple of 64, block shapes straddling word boundaries). The
// word-parallel kernel refactor (PR 2) must keep these bit-identical.
//
// Re-pin with PRINT_GOLDEN=1 only after an intentional semantic change.

import (
	"os"
	"testing"

	"repro/internal/spike"
	"repro/internal/tensor"
)

func goldenTensor(t, n, d int, fill int, seed uint64) *spike.Tensor {
	rng := tensor.NewRNG(seed)
	s := spike.NewTensor(t, n, d)
	for i := 0; i < fill; i++ {
		s.Set(rng.Intn(t), rng.Intn(n), rng.Intn(d), true)
	}
	return s
}

func intHash(vals ...[]int) uint64 {
	h := uint64(14695981039346656037)
	for _, vs := range vals {
		for _, v := range vs {
			for i := 0; i < 8; i++ {
				h ^= uint64(byte(uint64(v) >> (8 * i)))
				h *= 1099511628211
			}
		}
	}
	return h
}

func TestGoldenTagChecksum(t *testing.T) {
	const (
		goldenCounts = uint64(0xc0a33bfee0b02707)
		goldenRows   = uint64(0x791b3ee7ff9fbdbf)
		goldenSpikes = 1814
	)
	s := goldenTensor(7, 9, 130, 7*9*130/4, 99)
	tg := Tag(s, Shape{BSt: 3, BSn: 2})
	got := intHash(tg.counts, tg.ActivePerFeature(), tg.SpikesPerFeature())
	rows := intHash(tg.ActivePerRow())
	if os.Getenv("PRINT_GOLDEN") != "" {
		t.Logf("goldenCounts = uint64(%#x)", got)
		t.Logf("goldenRows   = uint64(%#x)", rows)
		t.Logf("goldenSpikes = %d", tg.SpikeCount())
		return
	}
	if got != goldenCounts {
		t.Errorf("tag checksum %#x want %#x", got, goldenCounts)
	}
	if rows != goldenRows {
		t.Errorf("row checksum %#x want %#x", rows, goldenRows)
	}
	if tg.SpikeCount() != goldenSpikes {
		t.Errorf("spike count %d want %d", tg.SpikeCount(), goldenSpikes)
	}
}

func TestGoldenECPChecksum(t *testing.T) {
	const (
		goldenMaxScore = 8
		goldenQKept    = 56
		goldenKKept    = 32
	)
	sh := Shape{BSt: 4, BSn: 2}
	q := goldenTensor(8, 10, 96, 8*10*96/6, 123)
	k := goldenTensor(8, 10, 96, 8*10*96/5, 321)
	cfg := ECPConfig{Shape: sh,
		ThetaQ: ThetaForKeepFraction(q, sh, 0.6),
		ThetaK: ThetaForKeepFraction(k, sh, 0.4)}
	qKeep, _, stats := cfg.Prune(q, k)
	ms := MaxScoreOfPruned(q, k, qKeep)
	if os.Getenv("PRINT_GOLDEN") != "" {
		t.Logf("goldenMaxScore = %d", ms)
		t.Logf("goldenQKept    = %d", stats.QTokensKept)
		t.Logf("goldenKKept    = %d", stats.KTokensKept)
		return
	}
	if ms != goldenMaxScore {
		t.Errorf("max pruned score %d want %d", ms, goldenMaxScore)
	}
	if stats.QTokensKept != goldenQKept {
		t.Errorf("Q kept %d want %d", stats.QTokensKept, goldenQKept)
	}
	if stats.KTokensKept != goldenKKept {
		t.Errorf("K kept %d want %d", stats.KTokensKept, goldenKKept)
	}
}
