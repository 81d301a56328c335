// Package spike implements binary spike tensors, the fundamental data type of
// a spiking transformer. A Tensor holds the firing outputs of a layer of LIF
// neurons over T time points, N tokens, and D features, backed by a bitset so
// that large activation maps stay compact and popcount-style statistics —
// which drive the entire Bishop hardware model — are cheap.
//
// Index order is (t, n, d): feature d varies fastest. This matches the
// Token-Time-Bundle layout in the paper (Fig. 4), where a bundle packs BSn
// tokens × BSt time points for one feature.
//
// Layout: each (t, n) token row is padded to a whole number of 64-bit words
// (wpr = ⌈D/64⌉), so every row starts word-aligned and all aggregate
// operations (Count*, Rate, TimeSlice, token overlaps) run as masked
// popcounts and TrailingZeros64 scans over whole words instead of per-bit
// Get/Set calls. Padding bits past D are always zero — every mutator
// maintains that invariant, which is what lets the kernels popcount whole
// words unmasked.
package spike

import (
	"fmt"
	"math/bits"
)

// Tensor is a binary activation tensor of shape T×N×D.
type Tensor struct {
	T, N, D int
	wpr     int // 64-bit words per (t, n) token row
	words   []uint64
}

// NewTensor returns an all-zero spike tensor of the given shape.
func NewTensor(t, n, d int) *Tensor {
	if t <= 0 || n <= 0 || d <= 0 {
		panic(fmt.Sprintf("spike: invalid shape %dx%dx%d", t, n, d))
	}
	wpr := (d + 63) / 64
	return &Tensor{T: t, N: n, D: d, wpr: wpr, words: make([]uint64, t*n*wpr)}
}

// rowStart returns the word offset of token row (t, n) without bounds
// checks; it is the internal unchecked entry point for the hot kernels.
func (s *Tensor) rowStart(t, n int) int { return (t*s.N + n) * s.wpr }

func (s *Tensor) checkRow(t, n int) {
	if t < 0 || t >= s.T || n < 0 || n >= s.N {
		panic(fmt.Sprintf("spike: row (%d,%d) out of %dx%d", t, n, s.T, s.N))
	}
}

// padMask returns the valid-bit mask of the last word of a token row (all
// ones when D is a multiple of 64).
func (s *Tensor) padMask() uint64 {
	if r := uint(s.D & 63); r != 0 {
		return (1 << r) - 1
	}
	return ^uint64(0)
}

// WordsPerRow returns the number of 64-bit words backing one (t, n) token
// row, ⌈D/64⌉ — the scratch size for TokenWords-based kernels.
func (s *Tensor) WordsPerRow() int { return s.wpr }

// Words returns the whole packed backing store as a live word-slice view:
// T·N rows of ⌈D/64⌉ words each, in (t, n) row order. It is the export
// surface for serializers, which stream these words verbatim. The view is
// read-only by contract — writers must go through the mutators so the
// padding bits past D stay zero.
func (s *Tensor) Words() []uint64 { return s.words[:len(s.words):len(s.words)] }

// NewTensorFromWords builds a tensor of shape T×N×D from packed words laid
// out exactly as Words() exports them. The words are copied. It is the
// import surface for deserializers, so it validates rather than panics:
// the length must be T·N·⌈D/64⌉ and every padding bit past D must be zero
// (the invariant all word kernels rely on) — a corrupted or hand-built
// payload fails loudly instead of producing silently wrong popcounts.
func NewTensorFromWords(t, n, d int, words []uint64) (*Tensor, error) {
	if t <= 0 || n <= 0 || d <= 0 {
		return nil, fmt.Errorf("spike: invalid shape %dx%dx%d", t, n, d)
	}
	s := NewTensor(t, n, d)
	if len(words) != len(s.words) {
		return nil, fmt.Errorf("spike: %dx%dx%d needs %d words, got %d", t, n, d, len(s.words), len(words))
	}
	copy(s.words, words)
	if mask := s.padMask(); mask != ^uint64(0) {
		for i := s.wpr - 1; i < len(s.words); i += s.wpr {
			if s.words[i]&^mask != 0 {
				return nil, fmt.Errorf("spike: nonzero padding bits past D=%d in row word %d", d, i)
			}
		}
	}
	return s, nil
}

// TokenWords returns the packed firing bits of token row (t, n) as a live
// word-slice view: bit d of the row is word d>>6, bit d&63. The view is
// read-only by contract — writers must go through Set or SetTokenWords so
// the padding bits past D stay zero.
func (s *Tensor) TokenWords(t, n int) []uint64 {
	s.checkRow(t, n)
	i := s.rowStart(t, n)
	return s.words[i : i+s.wpr : i+s.wpr]
}

// SetTokenWords overwrites token row (t, n) from src (length ⌈D/64⌉),
// masking any padding bits past D.
func (s *Tensor) SetTokenWords(t, n int, src []uint64) {
	s.checkRow(t, n)
	if len(src) != s.wpr {
		panic(fmt.Sprintf("spike: SetTokenWords len %d want %d", len(src), s.wpr))
	}
	row := s.words[s.rowStart(t, n):]
	copy(row[:s.wpr], src)
	row[s.wpr-1] &= s.padMask()
}

// Get reports whether the neuron at (t, n, d) fired.
func (s *Tensor) Get(t, n, d int) bool {
	s.checkRow(t, n)
	if d < 0 || d >= s.D {
		panic(fmt.Sprintf("spike: feature %d out of %d", d, s.D))
	}
	return s.words[s.rowStart(t, n)+d>>6]&(1<<(uint(d)&63)) != 0
}

// Set assigns the firing bit at (t, n, d).
func (s *Tensor) Set(t, n, d int, v bool) {
	s.checkRow(t, n)
	if d < 0 || d >= s.D {
		panic(fmt.Sprintf("spike: feature %d out of %d", d, s.D))
	}
	i := s.rowStart(t, n) + d>>6
	if v {
		s.words[i] |= 1 << (uint(d) & 63)
	} else {
		s.words[i] &^= 1 << (uint(d) & 63)
	}
}

// Count returns the total number of spikes in the tensor.
func (s *Tensor) Count() int {
	return countWords(s.words)
}

// Density returns the fraction of set bits in [0,1].
func (s *Tensor) Density() float64 {
	return float64(s.Count()) / float64(s.T*s.N*s.D)
}

// Clone returns a deep copy.
func (s *Tensor) Clone() *Tensor {
	out := NewTensor(s.T, s.N, s.D)
	copy(out.words, s.words)
	return out
}

// Zero clears every spike.
func (s *Tensor) Zero() {
	for i := range s.words {
		s.words[i] = 0
	}
}

// CountToken returns the number of spikes for token n at time t across all
// features (the per-token firing count used by ECP row statistics).
func (s *Tensor) CountToken(t, n int) int {
	s.checkRow(t, n)
	i := s.rowStart(t, n)
	return countWords(s.words[i : i+s.wpr])
}

// CountFeature returns the number of spikes on feature d across all tokens
// and time points (the per-feature column activity used by the stratifier).
func (s *Tensor) CountFeature(d int) int {
	if d < 0 || d >= s.D {
		panic(fmt.Sprintf("spike: feature %d out of %d", d, s.D))
	}
	i := d >> 6
	b := uint(d) & 63
	var c int
	for ; i < len(s.words); i += s.wpr {
		c += int(s.words[i] >> b & 1)
	}
	return c
}

// CountBlock returns the number of spikes for feature d over tokens
// [n0,n1) and time points [t0,t1), clamped to the tensor bounds. This is the
// L0 bundle-activity tag of Eq. 9.
func (s *Tensor) CountBlock(t0, t1, n0, n1, d int) int {
	if d < 0 || d >= s.D {
		panic(fmt.Sprintf("spike: feature %d out of %d", d, s.D))
	}
	if t0 < 0 {
		t0 = 0
	}
	if n0 < 0 {
		n0 = 0
	}
	if t1 > s.T {
		t1 = s.T
	}
	if n1 > s.N {
		n1 = s.N
	}
	w := d >> 6
	b := uint(d) & 63
	var c int
	for t := t0; t < t1; t++ {
		i := s.rowStart(t, n0) + w
		for n := n0; n < n1; n++ {
			c += int(s.words[i] >> b & 1)
			i += s.wpr
		}
	}
	return c
}

// ForEachSetToken calls fn(d) for every set feature bit of token row (t, n)
// in ascending d order, scanning words with TrailingZeros64.
func (s *Tensor) ForEachSetToken(t, n int, fn func(d int)) {
	s.checkRow(t, n)
	i := s.rowStart(t, n)
	for wi, w := range s.words[i : i+s.wpr] {
		base := wi << 6
		for w != 0 {
			fn(base + bits.TrailingZeros64(w))
			w &= w - 1
		}
	}
}

// ForEachSet calls fn(t, n, d) for every set bit in (t, n, d) order.
func (s *Tensor) ForEachSet(fn func(t, n, d int)) {
	i := 0
	for t := 0; t < s.T; t++ {
		for n := 0; n < s.N; n++ {
			for wi := 0; wi < s.wpr; wi++ {
				w := s.words[i+wi]
				base := wi << 6
				for w != 0 {
					fn(t, n, base+bits.TrailingZeros64(w))
					w &= w - 1
				}
			}
			i += s.wpr
		}
	}
}

// TokenAndCount returns the overlap between token row (t, n) of s and token
// row (ot, on) of o — the integer attention score Σ_d s∧o of Eq. 6. The
// feature widths must match.
func (s *Tensor) TokenAndCount(t, n int, o *Tensor, ot, on int) int {
	if s.D != o.D {
		panic(fmt.Sprintf("spike: TokenAndCount D %d vs %d", s.D, o.D))
	}
	s.checkRow(t, n)
	o.checkRow(ot, on)
	a := s.words[s.rowStart(t, n):][:s.wpr]
	b := o.words[o.rowStart(ot, on):][:s.wpr]
	return andCountWords(a, b)
}

// TimeSlice copies the spikes at time t into dst as a float N×D matrix
// (1.0 where fired). dst must have N rows and D cols; it is overwritten.
func (s *Tensor) TimeSlice(t int, dst []float32) {
	if len(dst) != s.N*s.D {
		panic(fmt.Sprintf("spike: TimeSlice dst len %d want %d", len(dst), s.N*s.D))
	}
	if t < 0 || t >= s.T {
		panic(fmt.Sprintf("spike: time %d out of %d", t, s.T))
	}
	for i := range dst {
		dst[i] = 0
	}
	for n := 0; n < s.N; n++ {
		i := s.rowStart(t, n)
		out := dst[n*s.D:]
		for wi, w := range s.words[i : i+s.wpr] {
			base := wi << 6
			for w != 0 {
				out[base+bits.TrailingZeros64(w)] = 1
				w &= w - 1
			}
		}
	}
}

// SetTimeSlice sets the spikes at time t from a thresholded float N×D matrix:
// any value > 0.5 is a spike.
func (s *Tensor) SetTimeSlice(t int, src []float32) {
	if len(src) != s.N*s.D {
		panic(fmt.Sprintf("spike: SetTimeSlice src len %d want %d", len(src), s.N*s.D))
	}
	if t < 0 || t >= s.T {
		panic(fmt.Sprintf("spike: time %d out of %d", t, s.T))
	}
	for n := 0; n < s.N; n++ {
		row := src[n*s.D : (n+1)*s.D]
		i := s.rowStart(t, n)
		for wi := 0; wi < s.wpr; wi++ {
			var w uint64
			seg := row[wi<<6:]
			if len(seg) > 64 {
				seg = seg[:64]
			}
			for b, v := range seg {
				if v > 0.5 {
					w |= 1 << uint(b)
				}
			}
			s.words[i+wi] = w
		}
	}
}

// Rate returns the mean firing rate per (token, feature) pair averaged over
// time, as an N×D row-major slice. Used by the rate-decoding classifier head.
func (s *Tensor) Rate() []float32 {
	return s.RateInto(make([]float32, s.N*s.D))
}

// RateInto writes the mean firing rate per (token, feature) pair into dst,
// which must have length N·D, and returns it. It is the zero-alloc form of
// Rate for callers that hold a reusable buffer.
func (s *Tensor) RateInto(dst []float32) []float32 {
	if len(dst) != s.N*s.D {
		panic(fmt.Sprintf("spike: RateInto dst len %d want %d", len(dst), s.N*s.D))
	}
	out := dst
	for i := range out {
		out[i] = 0
	}
	inv := 1 / float32(s.T)
	i := 0
	for t := 0; t < s.T; t++ {
		for n := 0; n < s.N; n++ {
			dst := out[n*s.D:]
			for wi := 0; wi < s.wpr; wi++ {
				w := s.words[i+wi]
				base := wi << 6
				for w != 0 {
					dst[base+bits.TrailingZeros64(w)] += inv
					w &= w - 1
				}
			}
			i += s.wpr
		}
	}
	return out
}

// Equal reports whether two tensors have identical shape and contents.
func (s *Tensor) Equal(o *Tensor) bool {
	if s.T != o.T || s.N != o.N || s.D != o.D {
		return false
	}
	for i, w := range s.words {
		if o.words[i] != w {
			return false
		}
	}
	return true
}

// String summarizes the tensor for logs.
func (s *Tensor) String() string {
	return fmt.Sprintf("spike.Tensor{T:%d N:%d D:%d spikes:%d density:%.3f}",
		s.T, s.N, s.D, s.Count(), s.Density())
}

// countWords returns Σ popcount(p[i]). The compiler lowers bits.OnesCount64
// to one instruction where the ISA has one.
func countWords(p []uint64) int {
	var c int
	for _, w := range p {
		c += bits.OnesCount64(w)
	}
	return c
}

// andCountWords returns Σ popcount(a[i] & b[i]); len(b) must be ≥ len(a).
func andCountWords(a, b []uint64) int {
	b = b[:len(a)]
	var c int
	for i, w := range a {
		c += bits.OnesCount64(w & b[i])
	}
	return c
}
