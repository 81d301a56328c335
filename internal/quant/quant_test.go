package quant

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/dataset"
	"repro/internal/snn"
	"repro/internal/tensor"
	"repro/internal/train"
	"repro/internal/transformer"
)

func TestQuantizeRoundTripBound(t *testing.T) {
	rng := tensor.NewRNG(1)
	m := tensor.NewMat(16, 16)
	rng.FillNormal(m, 0.5)
	q := Quantize(m)
	scale := math.Pow(2, float64(q.Exp))
	if err := q.MaxError(m); err > scale/2+1e-9 {
		t.Fatalf("error %v exceeds half-step %v", err, scale/2)
	}
}

func TestQuantizeZeroMatrix(t *testing.T) {
	m := tensor.NewMat(4, 4)
	q := Quantize(m)
	for _, v := range q.Data {
		if v != 0 {
			t.Fatal("zero matrix must quantize to zeros")
		}
	}
	deq := q.Dequantize()
	for _, v := range deq.Data {
		if v != 0 {
			t.Fatal("zero round trip")
		}
	}
}

func TestQuantizeRangeProperty(t *testing.T) {
	// Property: every quantized value is representable and reconstruction
	// error is within half a scale step, for any magnitude distribution.
	f := func(seed uint64) bool {
		rng := tensor.NewRNG(seed)
		m := tensor.NewMat(8, 8)
		rng.FillNormal(m, math.Pow(2, float64(rng.Intn(16))-8))
		q := Quantize(m)
		return q.MaxError(m) <= math.Pow(2, float64(q.Exp))/2+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestPowerOfTwoScale(t *testing.T) {
	rng := tensor.NewRNG(3)
	m := tensor.NewMat(8, 8)
	rng.FillNormal(m, 3)
	q := Quantize(m)
	// Exp must produce a scale with max|W|/scale ≤ 127.
	scale := math.Pow(2, float64(q.Exp))
	if float64(m.MaxAbs())/scale > 127.0001 {
		t.Fatalf("scale too small: max %v scale %v", m.MaxAbs(), scale)
	}
	// And one exponent lower must overflow (tightness).
	if float64(m.MaxAbs())/(scale/2) <= 127 {
		t.Fatalf("scale not tight: exp %d", q.Exp)
	}
}

func TestQuantizeParamsFootprint(t *testing.T) {
	rng := tensor.NewRNG(4)
	a := snn.NewParam("a", 4, 8)
	b := snn.NewParam("b", 2, 2)
	rng.FillNormal(a.W, 1)
	rng.FillNormal(b.W, 1)
	orig := a.W.Clone()
	bytes, maxErr := QuantizeParams([]*snn.Param{a, b})
	if bytes != 4*8+2*2 {
		t.Fatalf("bytes %d", bytes)
	}
	if maxErr <= 0 {
		t.Fatal("expected nonzero quantization error")
	}
	// Weights were replaced by their int8 reconstruction: close but not
	// identical to the original.
	var diff float64
	for i := range orig.Data {
		diff += math.Abs(float64(orig.Data[i] - a.W.Data[i]))
	}
	if diff == 0 {
		t.Fatal("weights unchanged")
	}
	if q := Quantize(a.W); q.MaxError(a.W) > 1e-9 {
		t.Fatal("requantizing a quantized tensor must be exact")
	}
}

func TestStringer(t *testing.T) {
	q := Quantize(tensor.NewMat(2, 3))
	if q.String() == "" {
		t.Fatal("empty string")
	}
}

// TestQuantizedTrainedModelKeepsAccuracy is the deployment claim (§6.1):
// quantizing a trained spiking transformer to 8-bit weights costs one byte
// per weight and keeps its test accuracy within a small margin.
func TestQuantizedTrainedModelKeepsAccuracy(t *testing.T) {
	ds := dataset.CIFAR10Like(80, 40, 9)
	m := transformer.NewModel(transformer.Config{Name: "quant-tiny", Blocks: 2, T: 4, N: ds.N,
		D: 32, Heads: 4, MLPRatio: 2, PatchDim: ds.PatchD, Classes: ds.Classes,
		LIF: snn.DefaultLIF()}, 1)
	trainer := &train.Trainer{Model: m, Opt: train.NewAdamW(0.002, 1e-4), ClipL2: 5}
	before := trainer.Run(ds, 4)
	footprint, maxErr := QuantizeParams(m.Params())
	after := trainer.Evaluate(ds)
	t.Logf("int8 footprint %d B, max weight error %.4g, accuracy %.3f -> %.3f",
		footprint, maxErr, before, after)
	if footprint != m.NumParams() {
		t.Fatalf("footprint %d want one byte per weight (%d)", footprint, m.NumParams())
	}
	if after < before-0.1 {
		t.Fatalf("int8 deployment lost too much accuracy: %.3f -> %.3f", before, after)
	}
}
