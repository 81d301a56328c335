package spike

import (
	"testing"
	"testing/quick"

	"repro/internal/tensor"
)

func TestSetGetRoundTrip(t *testing.T) {
	s := NewTensor(3, 4, 5)
	s.Set(2, 3, 4, true)
	if !s.Get(2, 3, 4) {
		t.Fatal("bit not set")
	}
	s.Set(2, 3, 4, false)
	if s.Get(2, 3, 4) {
		t.Fatal("bit not cleared")
	}
}

func TestCountAndDensity(t *testing.T) {
	s := NewTensor(2, 2, 2)
	s.Set(0, 0, 0, true)
	s.Set(1, 1, 1, true)
	if s.Count() != 2 {
		t.Fatalf("count=%d", s.Count())
	}
	if s.Density() != 0.25 {
		t.Fatalf("density=%v", s.Density())
	}
}

func TestOutOfRangePanics(t *testing.T) {
	s := NewTensor(1, 1, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	s.Get(0, 0, 1)
}

func TestCountTokenFeatureBlock(t *testing.T) {
	s := NewTensor(2, 3, 4)
	// token 1 at t=0 fires on features 0 and 2.
	s.Set(0, 1, 0, true)
	s.Set(0, 1, 2, true)
	// feature 2 also fires at t=1 token 0.
	s.Set(1, 0, 2, true)
	if got := s.CountToken(0, 1); got != 2 {
		t.Fatalf("CountToken=%d", got)
	}
	if got := s.CountFeature(2); got != 2 {
		t.Fatalf("CountFeature=%d", got)
	}
	if got := s.CountBlock(0, 1, 0, 2, 2); got != 1 {
		t.Fatalf("CountBlock=%d", got)
	}
	// clamped block covers everything on feature 2
	if got := s.CountBlock(0, 99, 0, 99, 2); got != 2 {
		t.Fatalf("clamped CountBlock=%d", got)
	}
}

func TestTimeSliceRoundTrip(t *testing.T) {
	rng := tensor.NewRNG(3)
	s := NewTensor(2, 4, 6)
	buf := make([]float32, 4*6)
	for i := range buf {
		if rng.Float32() < 0.3 {
			buf[i] = 1
		}
	}
	s.SetTimeSlice(1, buf)
	out := make([]float32, 4*6)
	s.TimeSlice(1, out)
	for i := range buf {
		if buf[i] != out[i] {
			t.Fatalf("round trip mismatch at %d", i)
		}
	}
	// t=0 must remain empty
	s.TimeSlice(0, out)
	for i, v := range out {
		if v != 0 {
			t.Fatalf("t=0 contaminated at %d", i)
		}
	}
}

func TestRate(t *testing.T) {
	s := NewTensor(4, 1, 1)
	s.Set(0, 0, 0, true)
	s.Set(2, 0, 0, true)
	r := s.Rate()
	if r[0] != 0.5 {
		t.Fatalf("rate=%v", r[0])
	}
}

func TestCloneEqualZero(t *testing.T) {
	s := NewTensor(2, 2, 2)
	s.Set(1, 1, 1, true)
	c := s.Clone()
	if !s.Equal(c) {
		t.Fatal("clone not equal")
	}
	c.Set(0, 0, 0, true)
	if s.Equal(c) {
		t.Fatal("clone shares storage")
	}
	c.Zero()
	if c.Count() != 0 {
		t.Fatal("zero failed")
	}
	if s.Equal(NewTensor(2, 2, 3)) {
		t.Fatal("different shapes must not be equal")
	}
}

// Property: total count equals the sum of per-feature counts and the sum of
// per-token counts.
func TestCountConsistency(t *testing.T) {
	f := func(seed uint64) bool {
		rng := tensor.NewRNG(seed)
		T, N, D := 1+rng.Intn(4), 1+rng.Intn(6), 1+rng.Intn(8)
		s := NewTensor(T, N, D)
		for i := 0; i < T*N*D/3+1; i++ {
			s.Set(rng.Intn(T), rng.Intn(N), rng.Intn(D), true)
		}
		var byFeat, byTok int
		for d := 0; d < D; d++ {
			byFeat += s.CountFeature(d)
		}
		for tt := 0; tt < T; tt++ {
			for n := 0; n < N; n++ {
				byTok += s.CountToken(tt, n)
			}
		}
		return byFeat == s.Count() && byTok == s.Count()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: CountBlock partitions sum to CountFeature for any block grid.
func TestCountBlockPartition(t *testing.T) {
	f := func(seed uint64) bool {
		rng := tensor.NewRNG(seed)
		T, N, D := 2+rng.Intn(6), 2+rng.Intn(8), 1+rng.Intn(4)
		s := NewTensor(T, N, D)
		for i := 0; i < T*N*D/2; i++ {
			s.Set(rng.Intn(T), rng.Intn(N), rng.Intn(D), true)
		}
		bst, bsn := 1+rng.Intn(3), 1+rng.Intn(3)
		for d := 0; d < D; d++ {
			var sum int
			for t0 := 0; t0 < T; t0 += bst {
				for n0 := 0; n0 < N; n0 += bsn {
					sum += s.CountBlock(t0, t0+bst, n0, n0+bsn, d)
				}
			}
			if sum != s.CountFeature(d) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestStringContainsShape(t *testing.T) {
	s := NewTensor(1, 2, 3)
	got := s.String()
	if got == "" {
		t.Fatal("empty string")
	}
}

// TestSetBlockMatchesSet pins SetBlock to one Set per mask bit, slot i at
// row (t0+i/w, n0+i%w), over blocks at the tensor's edges, features in the
// last, padded word, and a 64-slot block; bits already set stay set.
func TestSetBlockMatchesSet(t *testing.T) {
	rng := tensor.NewRNG(4)
	const T, N, D = 9, 21, 131
	blocks := [][4]int{{0, 4, 0, 2}, {8, 9, 20, 21}, {5, 9, 17, 21}, {0, 1, 0, 21}, {1, 9, 13, 21}, {0, 9, 0, 1}}
	for _, bl := range blocks {
		for _, d := range []int{0, 63, 64, 130} {
			got, want := NewTensor(T, N, D), NewTensor(T, N, D)
			got.Set(bl[0], bl[2], d, true) // a bit the mask leaves clear stays set
			want.Set(bl[0], bl[2], d, true)
			mask := rng.Uint64() &^ 1
			got.SetBlock(bl[0], bl[1], bl[2], bl[3], d, mask)
			w := bl[3] - bl[2]
			for i := range (bl[1] - bl[0]) * w {
				if mask>>i&1 == 1 {
					want.Set(bl[0]+i/w, bl[2]+i%w, d, true)
				}
			}
			if !got.Equal(want) {
				t.Fatalf("block %v feature %d: SetBlock differs from Set per bit", bl, d)
			}
		}
	}
}

func TestSetBlockRejectsBadBlocks(t *testing.T) {
	s := NewTensor(4, 20, 10)
	for _, c := range []struct{ t0, t1, n0, n1, d int }{
		{-1, 1, 0, 1, 0}, {0, 5, 0, 1, 0}, {0, 1, -1, 1, 0}, {0, 1, 0, 21, 0},
		{1, 1, 0, 1, 0}, {0, 1, 2, 2, 0}, {0, 4, 0, 17, 0}, {0, 1, 0, 1, -1}, {0, 1, 0, 1, 10},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("SetBlock(%+v) did not panic", c)
				}
			}()
			s.SetBlock(c.t0, c.t1, c.n0, c.n1, c.d, 1)
		}()
	}
}
