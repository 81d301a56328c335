package bundle

// Microbenchmarks for TTB tagging: Retag into a reused Tags, the
// simulator's steady state, against the naive per-(feature, bundle)
// CountBlock reference. The tensor matches the Model-2 activation tensors
// the hardware model tags per layer.

import (
	"fmt"
	"testing"

	"repro/internal/spike"
	"repro/internal/tensor"
)

func benchSpikes() *spike.Tensor {
	rng := tensor.NewRNG(42)
	s := spike.NewTensor(4, 196, 384)
	for t := 0; t < s.T; t++ {
		for n := 0; n < s.N; n++ {
			for d := 0; d < s.D; d++ {
				if rng.Float64() < 0.12 {
					s.Set(t, n, d, true)
				}
			}
		}
	}
	return s
}

func BenchmarkRetag(b *testing.B) {
	s := benchSpikes()
	for _, sh := range []Shape{{BSt: 4, BSn: 2}, {BSt: 4, BSn: 4}} {
		b.Run(fmt.Sprintf("%dx%d", sh.BSt, sh.BSn), func(b *testing.B) {
			var tg Tags
			tg.Retag(s, sh)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tg.Retag(s, sh)
			}
		})
	}
}

func BenchmarkTagNaive(b *testing.B) {
	s := benchSpikes()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = naiveTag(s, DefaultShape)
	}
}
