package backend

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/accel"
	"repro/internal/baseline/gpu"
	"repro/internal/baseline/ptb"
	"repro/internal/transformer"
	"repro/internal/workload"
)

func testTrace(t testing.TB) *transformer.Trace {
	t.Helper()
	cfg := transformer.ModelZoo()[3] // Model 4, the cheapest Table 2 model
	return workload.CachedTrace(cfg, workload.Scenarios()[4], workload.TraceOptions{}, 1)
}

func TestRegistryNames(t *testing.T) {
	names := Names()
	for _, want := range []string{BishopName, GPUName, PTBName} {
		if !Registered(want) {
			t.Fatalf("%q not registered (have %v)", want, names)
		}
	}
	if !reflect.DeepEqual(names, []string{BishopName, GPUName, PTBName}) {
		t.Fatalf("Names() = %v, want sorted builtins", names)
	}
	if _, err := Default("nope"); err == nil || !strings.Contains(err.Error(), `unknown backend "nope"`) {
		t.Fatalf("unknown name must error with the registered list: %v", err)
	}
}

func TestRegisterRejectsDuplicatesAndNils(t *testing.T) {
	mustPanic := func(name string, f Factory) {
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: Register must panic", name)
			}
		}()
		Register(f)
	}
	ok := Factory{Name: BishopName,
		Default: func() Backend { return Bishop{} },
		Decode:  func([]byte) (Backend, error) { return Bishop{}, nil }}
	mustPanic("duplicate", ok)
	bad := ok
	bad.Name = ""
	mustPanic("empty name", bad)
	bad = ok
	bad.Name, bad.Decode = "fresh", nil
	mustPanic("nil decode", bad)
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
