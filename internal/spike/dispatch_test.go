package spike

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/tensor"
)

// wordPatterns builds word slices that stress every kernel path: empty,
// scalar-only tails, exactly one vector, one Harley–Seal block, block+tail,
// and lengths straddling every internal chunk boundary (4, 8, 16, 64 words).
func wordPatterns(rng *rand.Rand) [][]uint64 {
	lengths := []int{0, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 32, 33,
		63, 64, 65, 67, 127, 128, 129, 130, 191, 192, 200, 256, 300}
	var out [][]uint64
	for _, n := range lengths {
		rnd := make([]uint64, n)
		ones := make([]uint64, n)
		alt := make([]uint64, n)
		for i := range rnd {
			rnd[i] = rng.Uint64()
			ones[i] = ^uint64(0)
			alt[i] = 0xaaaaaaaaaaaaaaaa >> uint(i&1)
		}
		out = append(out, rnd, ones, alt, make([]uint64, n))
	}
	return out
}

// TestKernelBitIdentity drives every registered SIMD kernel set directly
// (bypassing the minWords threshold) against the pure-Go reference over
// lengths that straddle all vector-width and block boundaries.
func TestKernelBitIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	pats := wordPatterns(rng)
	for ki := range simdKernels {
		k := &simdKernels[ki]
		t.Run(k.name, func(t *testing.T) {
			for pi, p := range pats {
				if got, want := k.popcnt(p), popcntGo(p); got != want {
					t.Fatalf("popcnt pattern %d (len %d): %s=%d go=%d", pi, len(p), k.name, got, want)
				}
				b := make([]uint64, len(p))
				for i := range b {
					b[i] = rng.Uint64()
				}
				if got, want := k.andCount(p, b), andCountGo(p, b); got != want {
					t.Fatalf("andCount pattern %d (len %d): %s=%d go=%d", pi, len(p), k.name, got, want)
				}
				if got, want := k.orCount(p, b), orCountGo(p, b); got != want {
					t.Fatalf("orCount pattern %d (len %d): %s=%d go=%d", pi, len(p), k.name, got, want)
				}
			}
		})
	}
}

// TestKernelIgnoresExcessB pins the two-operand kernel contract: only the
// first len(a) words of b participate, so a longer b never changes the
// result (TokenAndCount passes row-suffix views that extend past wpr words).
func TestKernelIgnoresExcessB(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	a := make([]uint64, 70)
	b := make([]uint64, 200)
	for i := range a {
		a[i] = rng.Uint64()
	}
	for i := range b {
		b[i] = ^uint64(0)
	}
	for ki := range simdKernels {
		k := &simdKernels[ki]
		if got, want := k.andCount(a, b), andCountGo(a, b); got != want {
			t.Fatalf("%s andCount with long b: got %d want %d", k.name, got, want)
		}
		if got, want := k.orCount(a, b), orCountGo(a, b); got != want {
			t.Fatalf("%s orCount with long b: got %d want %d", k.name, got, want)
		}
	}
}

// TestTensorOpsBitIdenticalAcrossKernels forces each available kernel set
// in turn and checks every dispatched Tensor reduction against the values
// computed under the pure-Go kernels, over ragged D from 1 to 130 so rows
// straddle word boundaries.
func TestTensorOpsBitIdenticalAcrossKernels(t *testing.T) {
	rng := tensor.NewRNG(3)
	type caseResult struct {
		count, and, or, tok, tokAnd int
		rate                        []float32
	}
	dims := []int{1, 2, 31, 63, 64, 65, 66, 127, 128, 129, 130}
	type tcase struct {
		a, b *Tensor
	}
	var cases []tcase
	for _, d := range dims {
		a := randomTensor(rng, 3, 5, d, 0.3)
		b := randomTensor(rng, 3, 5, d, 0.3)
		cases = append(cases, tcase{a, b})
	}
	// Larger tensor whose full word count crosses every kernel threshold.
	cases = append(cases, tcase{
		randomTensor(rng, 4, 196, 384, 0.12),
		randomTensor(rng, 4, 196, 384, 0.12),
	})

	eval := func(c tcase) caseResult {
		return caseResult{
			count:  c.a.Count(),
			and:    c.a.AndCount(c.b),
			or:     c.a.OrCount(c.b),
			tok:    c.a.CountToken(c.a.T-1, c.a.N-1),
			tokAnd: c.a.TokenAndCount(0, 1, c.b, c.a.T-1, 2),
			rate:   c.a.Rate(),
		}
	}

	restore, err := forceKernel("go")
	if err != nil {
		t.Fatal(err)
	}
	want := make([]caseResult, len(cases))
	for i, c := range cases {
		want[i] = eval(c)
	}
	restore()

	for _, name := range AvailableKernels() {
		t.Run(name, func(t *testing.T) {
			restore, err := forceKernel(name)
			if err != nil {
				t.Fatal(err)
			}
			defer restore()
			for i, c := range cases {
				got := eval(c)
				if got.count != want[i].count || got.and != want[i].and ||
					got.or != want[i].or || got.tok != want[i].tok || got.tokAnd != want[i].tokAnd {
					t.Fatalf("case %d (D=%d): %+v under %s, want %+v",
						i, c.a.D, got, name, want[i])
				}
				for j := range got.rate {
					if got.rate[j] != want[i].rate[j] {
						t.Fatalf("case %d (D=%d): rate[%d]=%v under %s, want %v",
							i, c.a.D, j, got.rate[j], name, want[i].rate[j])
					}
				}
			}
		})
	}
}

// TestForceKernelUnknown pins the error path for a kernel this machine
// cannot dispatch to.
func TestForceKernelUnknown(t *testing.T) {
	if _, err := forceKernel("no-such-isa"); err == nil {
		t.Fatal("forceKernel accepted an unknown kernel")
	}
}

// TestNoSIMDEnvForcesGo pins the BISHOP_NOSIMD escape hatch: with the
// variable set, selection lands on the pure-Go kernels no matter what the
// host supports.
func TestNoSIMDEnvForcesGo(t *testing.T) {
	// Registered before Setenv so it runs after Setenv's cleanup restores
	// the environment — reselecting the real default for later tests.
	t.Cleanup(selectDefaultKernel)
	t.Setenv("BISHOP_NOSIMD", "1")
	selectDefaultKernel()
	if got := ActiveKernel(); got != "go" {
		t.Fatalf("ActiveKernel() = %q with BISHOP_NOSIMD=1, want go", got)
	}
}

// TestAvailableKernelsEndsWithGo pins the documented ordering contract.
func TestAvailableKernelsEndsWithGo(t *testing.T) {
	names := AvailableKernels()
	if len(names) == 0 || names[len(names)-1] != "go" {
		t.Fatalf("AvailableKernels() = %v, want pure-Go fallback last", names)
	}
	if ActiveKernel() != names[0] && ActiveKernel() != "go" {
		t.Fatalf("ActiveKernel() = %q not first of %v", ActiveKernel(), names)
	}
}

// FuzzKernelBitIdentity fuzzes raw word slices through every registered
// kernel set against the pure-Go reference, including the two-operand
// kernels with an uneven split of the input.
func FuzzKernelBitIdentity(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0xff})
	f.Add(make([]byte, 8*65))
	seed := make([]byte, 8*130)
	for i := range seed {
		seed[i] = byte(i * 37)
	}
	f.Add(seed)
	f.Fuzz(func(t *testing.T, data []byte) {
		words := make([]uint64, len(data)/8)
		for i := range words {
			for j := 0; j < 8; j++ {
				words[i] |= uint64(data[i*8+j]) << uint(8*j)
			}
		}
		half := len(words) / 2
		a, b := words[:half], words[half:]
		b = b[:len(a)]
		for ki := range simdKernels {
			k := &simdKernels[ki]
			if got, want := k.popcnt(words), popcntGo(words); got != want {
				t.Errorf("%s popcnt(%d words) = %d, go = %d", k.name, len(words), got, want)
			}
			if got, want := k.andCount(a, b), andCountGo(a, b); got != want {
				t.Errorf("%s andCount(%d words) = %d, go = %d", k.name, len(a), got, want)
			}
			if got, want := k.orCount(a, b), orCountGo(a, b); got != want {
				t.Errorf("%s orCount(%d words) = %d, go = %d", k.name, len(a), got, want)
			}
		}
	})
}

// Benchmarks comparing each kernel set on the PR 2 microbenchmark shape
// (T=4, N=196, D=384 at 12% density — 4704 words per full-tensor pass).
// The acceptance bar for this PR is ≥2× for the dispatched kernels over
// pure Go on these full-tensor reductions.

func benchKernels(b *testing.B, run func(b *testing.B, k *kernelSet)) {
	for _, name := range AvailableKernels() {
		var k *kernelSet
		if name == "go" {
			k = &goKernels
		} else {
			for i := range simdKernels {
				if simdKernels[i].name == name {
					k = &simdKernels[i]
				}
			}
		}
		b.Run(name, func(b *testing.B) { run(b, k) })
	}
}

func BenchmarkKernelCount(b *testing.B) {
	s := benchTensor()
	words := s.Words()
	b.SetBytes(int64(8 * len(words)))
	benchKernels(b, func(b *testing.B, k *kernelSet) {
		var sink int
		for i := 0; i < b.N; i++ {
			sink += k.popcnt(words)
		}
		_ = sink
	})
}

func BenchmarkKernelAndCount(b *testing.B) {
	s := benchTensor()
	rng := tensor.NewRNG(43)
	o := randomTensor(rng, benchT, benchN, benchD, 0.12)
	a, bw := s.Words(), o.Words()
	b.SetBytes(int64(16 * len(a)))
	benchKernels(b, func(b *testing.B, k *kernelSet) {
		var sink int
		for i := 0; i < b.N; i++ {
			sink += k.andCount(a, bw)
		}
		_ = sink
	})
}

func BenchmarkKernelOrCount(b *testing.B) {
	s := benchTensor()
	rng := tensor.NewRNG(44)
	o := randomTensor(rng, benchT, benchN, benchD, 0.12)
	a, bw := s.Words(), o.Words()
	b.SetBytes(int64(16 * len(a)))
	benchKernels(b, func(b *testing.B, k *kernelSet) {
		var sink int
		for i := 0; i < b.N; i++ {
			sink += k.orCount(a, bw)
		}
		_ = sink
	})
}

// BenchmarkDispatchedCount measures the public API path (threshold check,
// atomic load) under the default kernel selection; `make bench-gate` runs it.
func BenchmarkDispatchedCount(b *testing.B) {
	s := benchTensor()
	b.SetBytes(int64(8 * len(s.Words())))
	var sink int
	for i := 0; i < b.N; i++ {
		sink += s.Count()
	}
	_ = sink
}

func init() {
	// Make accidental kernel-set aliasing loud in tests: every registered
	// name must be unique.
	seen := map[string]bool{}
	for i := range simdKernels {
		if seen[simdKernels[i].name] {
			panic(fmt.Sprintf("duplicate kernel %q", simdKernels[i].name))
		}
		seen[simdKernels[i].name] = true
	}
}

// TestStatisticsZeroAlloc pins that the hot spike statistics — the
// reductions accel simulation calls per layer — stay off the heap under
// whatever kernel set is active, including the RateInto scatter.
func TestStatisticsZeroAlloc(t *testing.T) {
	rng := tensor.NewRNG(9)
	s := randomTensor(rng, benchT, benchN, benchD, 0.12)
	o := randomTensor(rng, benchT, benchN, benchD, 0.12)
	rate := make([]float32, benchN*benchD)
	var sink int
	if allocs := testing.AllocsPerRun(10, func() {
		sink += s.Count()
		sink += s.AndCount(o)
		sink += s.OrCount(o)
		sink += s.CountToken(1, 2)
		sink += s.TokenAndCount(0, 0, o, 1, 1)
		s.RateInto(rate)
	}); allocs != 0 {
		t.Fatalf("spike statistics allocate %.1f objects/run, want 0", allocs)
	}
	_ = sink
}
