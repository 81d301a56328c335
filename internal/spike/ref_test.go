package spike

// Reference tests for the word-parallel kernels: every kernel is pinned
// against a naive bit-loop implementation built only on the public
// bounds-checked Get path, over ragged shapes where D is not a multiple of
// 64 and block ranges that straddle word boundaries.

import (
	"testing"
	"testing/quick"

	"repro/internal/tensor"
)

// raggedDims are feature widths chosen to cover sub-word, exact-word, and
// word-straddling rows.
var raggedDims = []int{1, 3, 31, 63, 64, 65, 127, 128, 130}

func randomTensor(rng *tensor.RNG, T, N, D int, density float64) *Tensor {
	s := NewTensor(T, N, D)
	for t := 0; t < T; t++ {
		for n := 0; n < N; n++ {
			for d := 0; d < D; d++ {
				if rng.Float64() < density {
					s.Set(t, n, d, true)
				}
			}
		}
	}
	return s
}

func naiveCount(s *Tensor) int {
	var c int
	for t := 0; t < s.T; t++ {
		for n := 0; n < s.N; n++ {
			for d := 0; d < s.D; d++ {
				if s.Get(t, n, d) {
					c++
				}
			}
		}
	}
	return c
}

func naiveCountToken(s *Tensor, t, n int) int {
	var c int
	for d := 0; d < s.D; d++ {
		if s.Get(t, n, d) {
			c++
		}
	}
	return c
}

func naiveCountFeature(s *Tensor, d int) int {
	var c int
	for t := 0; t < s.T; t++ {
		for n := 0; n < s.N; n++ {
			if s.Get(t, n, d) {
				c++
			}
		}
	}
	return c
}

func naiveCountBlock(s *Tensor, t0, t1, n0, n1, d int) int {
	if t1 > s.T {
		t1 = s.T
	}
	if n1 > s.N {
		n1 = s.N
	}
	var c int
	for t := t0; t < t1; t++ {
		for n := n0; n < n1; n++ {
			if s.Get(t, n, d) {
				c++
			}
		}
	}
	return c
}

func naiveRate(s *Tensor) []float32 {
	out := make([]float32, s.N*s.D)
	inv := 1 / float32(s.T)
	for t := 0; t < s.T; t++ {
		for n := 0; n < s.N; n++ {
			for d := 0; d < s.D; d++ {
				if s.Get(t, n, d) {
					out[n*s.D+d] += inv
				}
			}
		}
	}
	return out
}

func TestKernelsMatchNaiveOverRaggedShapes(t *testing.T) {
	rng := tensor.NewRNG(17)
	for _, D := range raggedDims {
		T, N := 1+rng.Intn(5), 1+rng.Intn(7)
		s := randomTensor(rng, T, N, D, 0.3)

		if got, want := s.Count(), naiveCount(s); got != want {
			t.Fatalf("D=%d Count=%d want %d", D, got, want)
		}
		for tt := 0; tt < T; tt++ {
			for n := 0; n < N; n++ {
				if got, want := s.CountToken(tt, n), naiveCountToken(s, tt, n); got != want {
					t.Fatalf("D=%d CountToken(%d,%d)=%d want %d", D, tt, n, got, want)
				}
			}
		}
		for d := 0; d < D; d++ {
			if got, want := s.CountFeature(d), naiveCountFeature(s, d); got != want {
				t.Fatalf("D=%d CountFeature(%d)=%d want %d", D, d, got, want)
			}
		}
		r, nr := s.Rate(), naiveRate(s)
		for i := range r {
			if r[i] != nr[i] {
				t.Fatalf("D=%d Rate[%d]=%v want %v", D, i, r[i], nr[i])
			}
		}
	}
}

// Property: CountBlock matches the naive loop for arbitrary (possibly
// clamped, word-straddling) block ranges.
func TestCountBlockMatchesNaive(t *testing.T) {
	f := func(seed uint64) bool {
		rng := tensor.NewRNG(seed)
		D := raggedDims[rng.Intn(len(raggedDims))]
		T, N := 1+rng.Intn(6), 1+rng.Intn(8)
		s := randomTensor(rng, T, N, D, 0.4)
		for i := 0; i < 20; i++ {
			t0, n0 := rng.Intn(T+1), rng.Intn(N+1)
			t1, n1 := t0+rng.Intn(T+2), n0+rng.Intn(N+2)
			d := rng.Intn(D)
			if s.CountBlock(t0, t1, n0, n1, d) != naiveCountBlock(s, t0, t1, n0, n1, d) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: the set-bit iterators visit exactly the set bits, in ascending
// order, and the token overlap counts match a naive AND loop.
func TestIteratorsAndOverlaps(t *testing.T) {
	f := func(seed uint64) bool {
		rng := tensor.NewRNG(seed)
		D := raggedDims[rng.Intn(len(raggedDims))]
		T, N := 1+rng.Intn(4), 1+rng.Intn(6)
		a := randomTensor(rng, T, N, D, 0.35)
		b := randomTensor(rng, T, N, D, 0.35)

		// ForEachSetToken: ascending, exact.
		for tt := 0; tt < T; tt++ {
			for n := 0; n < N; n++ {
				last := -1
				ok := true
				a.ForEachSetToken(tt, n, func(d int) {
					if d <= last || !a.Get(tt, n, d) {
						ok = false
					}
					last = d
				})
				if !ok {
					return false
				}
				var c int
				a.ForEachSetToken(tt, n, func(int) { c++ })
				if c != naiveCountToken(a, tt, n) {
					return false
				}
			}
		}
		// ForEachSet visits every set bit exactly once.
		var total int
		ok := true
		a.ForEachSet(func(t, n, d int) {
			total++
			if !a.Get(t, n, d) {
				ok = false
			}
		})
		if !ok || total != naiveCount(a) {
			return false
		}
		// TokenAndCount.
		for tt := 0; tt < T; tt++ {
			for n := 0; n < N; n++ {
				var rowAnd int
				for d := 0; d < D; d++ {
					if a.Get(tt, n, d) && b.Get(tt, n, d) {
						rowAnd++
					}
				}
				if a.TokenAndCount(tt, n, b, tt, n) != rowAnd {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TokenWords/SetTokenWords round-trip, including the padding invariant: a
// src with garbage past D must be masked so Count stays exact.
func TestTokenWordsRoundTripAndPadding(t *testing.T) {
	for _, D := range raggedDims {
		s := NewTensor(2, 3, D)
		src := make([]uint64, s.WordsPerRow())
		for i := range src {
			src[i] = ^uint64(0) // all ones, including padding bits
		}
		s.SetTokenWords(1, 2, src)
		if got := s.CountToken(1, 2); got != D {
			t.Fatalf("D=%d CountToken=%d after all-ones SetTokenWords", D, got)
		}
		if got := s.Count(); got != D {
			t.Fatalf("D=%d Count=%d, padding leaked", D, got)
		}
		row := s.TokenWords(1, 2)
		var c int
		for _, w := range row {
			for b := 0; b < 64; b++ {
				if w>>uint(b)&1 != 0 {
					c++
				}
			}
		}
		if c != D {
			t.Fatalf("D=%d TokenWords popcount=%d", D, c)
		}
	}
}

// TimeSlice/SetTimeSlice agree with the Get/Set path on ragged widths.
func TestSliceKernelsMatchScalarPath(t *testing.T) {
	rng := tensor.NewRNG(5)
	for _, D := range raggedDims {
		N := 1 + rng.Intn(5)
		s := NewTensor(3, N, D)
		src := make([]float32, N*D)
		for i := range src {
			src[i] = rng.Float32()
		}
		s.SetTimeSlice(1, src)
		for n := 0; n < N; n++ {
			for d := 0; d < D; d++ {
				if s.Get(1, n, d) != (src[n*D+d] > 0.5) {
					t.Fatalf("D=%d SetTimeSlice bit (%d,%d)", D, n, d)
				}
			}
		}
		dst := make([]float32, N*D)
		for i := range dst {
			dst[i] = 7 // must be overwritten
		}
		s.TimeSlice(1, dst)
		for i := range dst {
			want := float32(0)
			if src[i] > 0.5 {
				want = 1
			}
			if dst[i] != want {
				t.Fatalf("D=%d TimeSlice[%d]=%v want %v", D, i, dst[i], want)
			}
		}
	}
}

// FuzzTokenKernels cross-checks the per-token kernels against the naive
// reference for fuzz-chosen shapes and bit patterns.
func FuzzTokenKernels(f *testing.F) {
	f.Add(uint64(1), uint8(3), uint8(2), uint8(65))
	f.Add(uint64(2), uint8(1), uint8(1), uint8(1))
	f.Add(uint64(3), uint8(4), uint8(5), uint8(64))
	f.Add(uint64(4), uint8(2), uint8(3), uint8(127))
	f.Fuzz(func(t *testing.T, seed uint64, tt, nn, dd uint8) {
		T, N, D := int(tt%6)+1, int(nn%6)+1, int(dd%130)+1
		rng := tensor.NewRNG(seed)
		s := randomTensor(rng, T, N, D, 0.3)
		if s.Count() != naiveCount(s) {
			t.Fatalf("Count mismatch T=%d N=%d D=%d", T, N, D)
		}
		for x := 0; x < T; x++ {
			for y := 0; y < N; y++ {
				if s.CountToken(x, y) != naiveCountToken(s, x, y) {
					t.Fatalf("CountToken(%d,%d) mismatch", x, y)
				}
			}
		}
		for d := 0; d < D; d++ {
			if s.CountFeature(d) != naiveCountFeature(s, d) {
				t.Fatalf("CountFeature(%d) mismatch", d)
			}
		}
		t0, t1 := int(tt)%T, int(tt)%T+int(nn%4)
		n0, n1 := int(nn)%N, int(nn)%N+int(dd%4)
		d := int(dd) % D
		if s.CountBlock(t0, t1, n0, n1, d) != naiveCountBlock(s, t0, t1, n0, n1, d) {
			t.Fatalf("CountBlock mismatch")
		}
	})
}
