package spike

// Microbenchmarks for the word-parallel kernels against the naive bit-loop
// baselines they replaced (the *Naive benchmarks walk the public
// bounds-checked Get path exactly as the pre-refactor kernels did).
// Shapes follow the Model-2 activation tensors (T=4, N=196, D=384) that the
// hardware model tags millions of times per figure.

import (
	"testing"

	"repro/internal/tensor"
)

const benchT, benchN, benchD = 4, 196, 384

func benchTensor() *Tensor {
	rng := tensor.NewRNG(42)
	return randomTensor(rng, benchT, benchN, benchD, 0.12)
}

func BenchmarkCountToken(b *testing.B) {
	s := benchTensor()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for n := 0; n < s.N; n++ {
			_ = s.CountToken(0, n)
		}
	}
}

func BenchmarkCountTokenNaive(b *testing.B) {
	s := benchTensor()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for n := 0; n < s.N; n++ {
			_ = naiveCountToken(s, 0, n)
		}
	}
}

func BenchmarkCountFeature(b *testing.B) {
	s := benchTensor()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for d := 0; d < s.D; d += 16 {
			_ = s.CountFeature(d)
		}
	}
}

func BenchmarkCountFeatureNaive(b *testing.B) {
	s := benchTensor()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for d := 0; d < s.D; d += 16 {
			_ = naiveCountFeature(s, d)
		}
	}
}

func BenchmarkRate(b *testing.B) {
	s := benchTensor()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = s.Rate()
	}
}

func BenchmarkRateNaive(b *testing.B) {
	s := benchTensor()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = naiveRate(s)
	}
}

func BenchmarkTimeSlice(b *testing.B) {
	s := benchTensor()
	dst := make([]float32, s.N*s.D)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.TimeSlice(i%s.T, dst)
	}
}

func BenchmarkTimeSliceNaive(b *testing.B) {
	s := benchTensor()
	dst := make([]float32, s.N*s.D)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := i % s.T
		for n := 0; n < s.N; n++ {
			for d := 0; d < s.D; d++ {
				if s.Get(t, n, d) {
					dst[n*s.D+d] = 1
				} else {
					dst[n*s.D+d] = 0
				}
			}
		}
	}
}

// BenchmarkKernelCount times the popcount loop behind Count on one
// full-tensor pass (4704 words). `make bench-gate` pairs it with the parent
// commit under this name.
func BenchmarkKernelCount(b *testing.B) {
	words := benchTensor().Words()
	b.SetBytes(int64(8 * len(words)))
	b.Run("go", func(b *testing.B) {
		var sink int
		for i := 0; i < b.N; i++ {
			sink += countWords(words)
		}
		_ = sink
	})
}

// TestStatisticsZeroAlloc pins that the hot spike statistics — the
// reductions accel simulation calls per layer — stay off the heap,
// including the RateInto scatter.
func TestStatisticsZeroAlloc(t *testing.T) {
	rng := tensor.NewRNG(9)
	s := randomTensor(rng, benchT, benchN, benchD, 0.12)
	o := randomTensor(rng, benchT, benchN, benchD, 0.12)
	rate := make([]float32, benchN*benchD)
	var sink int
	if allocs := testing.AllocsPerRun(10, func() {
		sink += s.Count()
		sink += s.CountToken(1, 2)
		sink += s.TokenAndCount(0, 0, o, 1, 1)
		s.RateInto(rate)
	}); allocs != 0 {
		t.Fatalf("spike statistics allocate %.1f objects/run, want 0", allocs)
	}
	_ = sink
}
