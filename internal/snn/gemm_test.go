package snn

// Equivalence and benchmark coverage for the spike-driven GEMM: the
// ForwardSpikes/Backward pair must be bit-identical to materializing the
// float spike matrices and running the dense Forward/Backward, for ragged
// feature widths included.

import (
	"testing"

	"repro/internal/spike"
	"repro/internal/tensor"
)

func randomSpikes(rng *tensor.RNG, T, N, D int, density float64) *spike.Tensor {
	s := spike.NewTensor(T, N, D)
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

func randomGrads(rng *tensor.RNG, T, N, D int) []*tensor.Mat {
	out := make([]*tensor.Mat, T)
	for t := range out {
		out[t] = tensor.NewMat(N, D)
		rng.FillNormal(out[t], 1)
	}
	return out
}

func TestForwardSpikesMatchesDensePath(t *testing.T) {
	for _, din := range []int{5, 64, 70, 128, 130} {
		rng := tensor.NewRNG(uint64(din))
		const T, N, dout = 3, 6, 11
		s := randomSpikes(rng, T, N, din, 0.3)

		sparse := NewLinear("sp", din, dout, true, tensor.NewRNG(9))
		dense := NewLinear("dn", din, dout, true, tensor.NewRNG(9))

		ys := sparse.ForwardSpikes(s)
		yd := dense.Forward(SpikesToMats(s))
		for tt := range ys {
			for i, v := range ys[tt].Data {
				if v != yd[tt].Data[i] {
					t.Fatalf("din=%d forward t=%d i=%d: %v vs %v", din, tt, i, v, yd[tt].Data[i])
				}
			}
		}

		gout := randomGrads(tensor.NewRNG(77), T, N, dout)
		goutCopy := randomGrads(tensor.NewRNG(77), T, N, dout)
		gxs := sparse.Backward(gout)
		gxd := dense.Backward(goutCopy)
		for tt := range gxs {
			for i, v := range gxs[tt].Data {
				if v != gxd[tt].Data[i] {
					t.Fatalf("din=%d gradIn t=%d i=%d mismatch", din, tt, i)
				}
			}
		}
		for i, v := range sparse.Weight.Grad.Data {
			if v != dense.Weight.Grad.Data[i] {
				t.Fatalf("din=%d dW[%d]: %v vs %v", din, i, v, dense.Weight.Grad.Data[i])
			}
		}
		for i, v := range sparse.Bias.Grad.Data {
			if v != dense.Bias.Grad.Data[i] {
				t.Fatalf("din=%d dB[%d] mismatch", din, i)
			}
		}
	}
}

func TestForwardSpikesNilGradStep(t *testing.T) {
	rng := tensor.NewRNG(3)
	s := randomSpikes(rng, 2, 4, 16, 0.4)
	l := NewLinear("l", 16, 8, false, rng)
	l.ForwardSpikes(s)
	g := l.Backward([]*tensor.Mat{nil, tensor.NewMat(4, 8)})
	if g[0].Rows != 4 || g[0].Cols != 16 {
		t.Fatalf("nil-step gradIn shape %dx%d", g[0].Rows, g[0].Cols)
	}
}

// Benchmark shapes follow a Model-2 projection: N=196 tokens, T=4 steps,
// 384→384 features at ~12% spike density.
func benchGEMMInputs() (*Linear, *spike.Tensor) {
	rng := tensor.NewRNG(42)
	l := NewLinear("b", 384, 384, false, rng)
	return l, randomSpikes(rng, 4, 196, 384, 0.12)
}

func BenchmarkLinearForwardSpikes(b *testing.B) {
	l, s := benchGEMMInputs()
	l.ForwardSpikes(s) // size the pooled outputs: time the steady state, not the cold first call
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = l.ForwardSpikes(s)
	}
}

// BenchmarkLinearForwardDense is the pre-refactor path: materialize every
// time slice as floats, then run the dense MatMul.
func BenchmarkLinearForwardDense(b *testing.B) {
	l, s := benchGEMMInputs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = l.Forward(SpikesToMats(s))
	}
}

func BenchmarkLIFForward(b *testing.B) {
	rng := tensor.NewRNG(1)
	currents := make([]*tensor.Mat, 4)
	for t := range currents {
		currents[t] = tensor.NewMat(196, 384)
		rng.FillNormal(currents[t], 1)
	}
	l := NewLIF(DefaultLIF())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = l.Forward(currents)
	}
}
