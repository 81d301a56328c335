package backend

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/accel"
	"repro/internal/baseline/gpu"
	"repro/internal/baseline/ptb"
	"repro/internal/bundle"
	"repro/internal/dataset"
	"repro/internal/hw"
	"repro/internal/snn"
	"repro/internal/train"
	"repro/internal/transformer"
	"repro/internal/workload"
)

func testTrace(t testing.TB) *transformer.Trace {
	t.Helper()
	cfg := transformer.ModelZoo()[3] // Model 4, the cheapest Table 2 model
	return workload.CachedTrace(cfg, workload.Scenarios()[4], workload.TraceOptions{}, 1)
}

func TestRegistryNames(t *testing.T) {
	if names := Names(); !reflect.DeepEqual(names, []string{BishopName, GPUName, PTBName}) {
		t.Fatalf("Names() = %v, want sorted builtins", names)
	}
	if _, err := Default("nope"); err == nil || !strings.Contains(err.Error(), `unknown backend "nope"`) {
		t.Fatalf("unknown name must error with the registered list: %v", err)
	}
}

// TestDefaultsSimulate ties every builtin backend to the package it wraps:
// the interface's report must be the exact report of a direct call.
func TestDefaultsSimulate(t *testing.T) {
	tr := testTrace(t)
	for _, tc := range []struct {
		name   string
		report string
		direct func() any
	}{
		{BishopName, "Bishop", func() any { return accel.Simulate(tr, accel.DefaultOptions()) }},
		{PTBName, "PTB", func() any { return ptb.Simulate(tr, ptb.DefaultOptions()) }},
		{GPUName, "EdgeGPU", func() any { return gpu.Simulate(tr, gpu.DefaultOptions()) }},
	} {
		b, err := Default(tc.name)
		if err != nil {
			t.Fatal(err)
		}
		if b.Name() != tc.name {
			t.Fatalf("Name() = %q want %q", b.Name(), tc.name)
		}
		rep := b.Simulate(tr)
		if rep.Name != tc.report {
			t.Fatalf("%s: report name %q want %q", tc.name, rep.Name, tc.report)
		}
		if !reflect.DeepEqual(rep, tc.direct()) {
			t.Fatalf("%s: backend report differs from the direct %s call", tc.name, tc.report)
		}
	}
}

// TestDecodeRoundTrip pins the codec contract: EncodeOptions bytes decode
// back to an equal backend (same digest, same simulation), nil options mean
// the default configuration, and unknown fields reject for every builtin.
func TestDecodeRoundTrip(t *testing.T) {
	for _, name := range Names() {
		def, err := Default(name)
		if err != nil {
			t.Fatal(err)
		}
		data, err := def.EncodeOptions()
		if err != nil {
			t.Fatalf("%s: encode: %v", name, err)
		}
		back, err := Decode(name, data)
		if err != nil {
			t.Fatalf("%s: decode: %v", name, err)
		}
		if !reflect.DeepEqual(back, def) || back.Digest() != def.Digest() {
			t.Fatalf("%s: decode(encode) drifted", name)
		}
		if fromNil, err := Decode(name, nil); err != nil || fromNil.Digest() != def.Digest() {
			t.Fatalf("%s: nil options must mean the default configuration: %v", name, err)
		}
		if _, err := Decode(name, []byte(`{"NoSuchKnob":1}`)); err == nil {
			t.Fatalf("%s: unknown field must reject", name)
		}
	}
}

// TestDigestsDistinct pins the name folding: default configurations of
// different backends never collide, and a backend digest never equals the
// bare options digest it folds the name into.
func TestDigestsDistinct(t *testing.T) {
	seen := map[uint64]string{}
	for _, name := range Names() {
		b, err := Default(name)
		if err != nil {
			t.Fatal(err)
		}
		d := b.Digest()
		if prev, dup := seen[d]; dup {
			t.Fatalf("%s and %s share digest %#x", prev, name, d)
		}
		seen[d] = name
	}
	bshop := Bishop{Opt: accel.DefaultOptions()}
	if bshop.Digest() == bshop.Opt.Digest() {
		t.Fatal("backend digest must fold the name into the options digest")
	}
	if FoldName(1, "ptb") == FoldName(1, "gpu") {
		t.Fatal("FoldName must separate names")
	}
}

// TestTrainedTraceBeatsPTB is the end-to-end co-design claim on a real
// activation trace: a spiking transformer trained with BSA and ECP-aware
// pruning is traced on one test input, and through the backend table Bishop
// must beat PTB on latency and energy, and the edge GPU on latency.
func TestTrainedTraceBeatsPTB(t *testing.T) {
	ds := dataset.CIFAR10Like(80, 40, 5)
	m := transformer.NewModel(transformer.Config{Name: "trained-tiny", Blocks: 2, T: 4, N: ds.N,
		D: 32, Heads: 4, MLPRatio: 2, PatchDim: ds.PatchD, Classes: ds.Classes,
		LIF: snn.DefaultLIF()}, 1)
	m.BSA = &transformer.BSAConfig{Lambda: 0.0004, Shape: bundle.DefaultShape, Structured: true}
	ecp := bundle.ECPConfig{Shape: bundle.DefaultShape, ThetaQ: 2, ThetaK: 2}
	m.Prune = ecp.PruneFn(nil)
	trainer := &train.Trainer{Model: m, Opt: train.NewAdamW(0.002, 1e-4), ClipL2: 5}
	if acc := trainer.Run(ds, 4); acc < 0.3 {
		t.Fatalf("trained accuracy %.3f too low", acc)
	}
	m.Forward(ds.Test[0].X)
	tr := m.Trace()

	reports := map[string]*hw.Report{}
	for _, name := range Names() {
		b, err := Default(name)
		if err != nil {
			t.Fatal(err)
		}
		reports[name] = b.Simulate(tr)
	}
	bishop, ptbRep, gpuRep := reports[BishopName], reports[PTBName], reports[GPUName]
	if s := ptbRep.LatencyMS() / bishop.LatencyMS(); s <= 1 {
		t.Fatalf("Bishop must beat PTB on a trained trace: %.2fx", s)
	}
	if g := ptbRep.EnergyMJ() / bishop.EnergyMJ(); g <= 1 {
		t.Fatalf("Bishop must use less energy than PTB: %.2fx", g)
	}
	if gpuRep.LatencyMS() <= bishop.LatencyMS() {
		t.Fatal("the edge GPU must be slower than Bishop")
	}
}
