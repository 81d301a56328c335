package accel

// Tests that tagging each linear input once per trace changes no report:
// Wq, Wk and Wv read one tensor, and the trace's statistics memo tags it
// once for all three.

import (
	"reflect"
	"slices"
	"sync"
	"testing"

	"repro/internal/bundle"
	"repro/internal/tensor"
	"repro/internal/transformer"
)

// unshared returns a copy of tr in which every linear layer reads its own
// clone of its input, so no two layers share an In pointer.
func unshared(tr *transformer.Trace) *transformer.Trace {
	cp := &transformer.Trace{Cfg: tr.Cfg, Layers: slices.Clone(tr.Layers)}
	for i := range cp.Layers {
		if cp.Layers[i].In != nil {
			cp.Layers[i].In = cp.Layers[i].In.Clone()
		}
	}
	return cp
}

// sharedInputs counts the linear layers whose In is the previous layer's.
func sharedInputs(tr *transformer.Trace) int {
	var n int
	for i := 1; i < len(tr.Layers); i++ {
		if in := tr.Layers[i].In; in != nil && in == tr.Layers[i-1].In {
			n++
		}
	}
	return n
}

// ecpModelTrace runs one forward pass of a small model under ECP, so its
// trace carries keep-masks as well as the shared Wq/Wk/Wv input.
func ecpModelTrace(t *testing.T) *transformer.Trace {
	t.Helper()
	cfg := transformer.Config{Name: "real", Blocks: 2, T: 4, N: 8, D: 80,
		Heads: 4, MLPRatio: 2, PatchDim: 12, Classes: 5}
	cfg.LIF.Vth, cfg.LIF.Leak, cfg.LIF.SurrWidth = 1, 0.0625, 1
	m := transformer.NewModel(cfg, 8)
	m.Prune = bundle.ECPConfig{Shape: bundle.DefaultShape, ThetaQ: 2, ThetaK: 2}.PruneFn(nil)
	x := make([]float32, cfg.N*cfg.PatchDim)
	for i := range x {
		x[i] = float32(i%5) - 2
	}
	m.Forward(tensor.FromSlice(cfg.N, cfg.PatchDim, x))
	tr := m.Trace()
	for _, l := range tr.ByGroup("ATN") {
		if l.QKeep == nil || l.KKeep == nil {
			t.Fatalf("%s carries no ECP keep-masks", l.Name)
		}
	}
	return tr
}

// rewired returns a copy of tr in which each block's first MLP layer reads
// the input of the projection before it, so a shared input also meets a
// different DOut.
func rewired(tr *transformer.Trace) *transformer.Trace {
	cp := &transformer.Trace{Cfg: tr.Cfg, Layers: slices.Clone(tr.Layers)}
	for i := 1; i < len(cp.Layers); i++ {
		prev, l := cp.Layers[i-1], &cp.Layers[i]
		if prev.Group == "P2" && l.Group == "MLP" && prev.In.D == l.In.D && prev.DOut != l.DOut {
			l.In = prev.In
		}
	}
	return cp
}

func TestSharedInputMatchesUnshared(t *testing.T) {
	traces := map[string]*transformer.Trace{
		"synthetic": trace(4, false, 3),
		"rewired":   rewired(trace(4, false, 3)),
		"model":     ecpModelTrace(t),
	}
	if sharedInputs(traces["rewired"]) <= sharedInputs(traces["synthetic"]) {
		t.Fatal("rewiring shared no MLP input with its projection")
	}
	for name, tr := range traces {
		if n := sharedInputs(tr); n == 0 {
			t.Fatalf("%s trace shares no linear input; the test would prove nothing", name)
		}
		cp := unshared(tr)
		if n := sharedInputs(cp); n != 0 {
			t.Fatalf("%s: unshared copy still shares %d inputs", name, n)
		}
		for optName, opt := range simulatorOptionSets() {
			got, want := Simulate(tr, opt), Simulate(cp, opt)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s trace, %s options: shared-input report differs from the unshared one", name, optName)
			}
		}
	}
}

// TestPooledSimulateRetagsEveryWalk cycles one trace pointer through
// option sets that change the tags (bundle shape) or what is derived from
// them (stratification, ECP) on the pooled engine. Each walk must read the
// statistics of its own shape, also when a walk's first linear input is the
// last one of the walk before: so besides a whole trace, it runs one
// holding only block 0's Wq, Wk and Wv.
func TestPooledSimulateRetagsEveryWalk(t *testing.T) {
	full := trace(4, false, 5)
	qkv := &transformer.Trace{Cfg: full.Cfg, Layers: full.ByGroup("P1")[:3]}
	if sharedInputs(qkv) != 2 {
		t.Fatal("block 0's Wq, Wk and Wv do not share one input")
	}
	wide := DefaultOptions()
	wide.Shape = bundle.Shape{BSt: 4, BSn: 4}
	homogeneous := DefaultOptions()
	homogeneous.Stratify = false
	ecp := DefaultOptions()
	ecp.ECP = &bundle.ECPConfig{Shape: bundle.DefaultShape, ThetaQ: 2, ThetaK: 2}
	steps := []struct {
		name string
		opt  Options
	}{
		{"4x2 stratified", DefaultOptions()},
		{"4x4 stratified", wide},
		{"4x2 homogeneous", homogeneous},
		{"ECP", ecp},
	}
	for _, tr := range []*transformer.Trace{full, qkv} {
		for round := 0; round < 2; round++ {
			for _, s := range steps {
				if got, want := Simulate(tr, s.opt), NewSimulator(s.opt).Simulate(tr); !reflect.DeepEqual(got, want) {
					t.Fatalf("%d layers, round %d, %s: pooled report differs from a fresh Simulator's",
						len(tr.Layers), round, s.name)
				}
			}
		}
	}
}

// TestSharedInputSharesActivity pins that layers reading one input share
// one *bundle.Activity in the memo, also when several walks fill a fresh
// trace's memo at once, each building some of its inputs.
func TestSharedInputSharesActivity(t *testing.T) {
	for name, base := range map[string]*transformer.Trace{
		"synthetic": trace(4, false, 3),
		"rewired":   rewired(trace(4, false, 3)),
		"model":     ecpModelTrace(t),
	} {
		for _, walkers := range []int{1, 4} {
			tr := &transformer.Trace{Cfg: base.Cfg, Layers: base.Layers}
			var wg sync.WaitGroup
			for range walkers {
				wg.Add(1)
				go func() {
					defer wg.Done()
					Simulate(tr, DefaultOptions())
				}()
			}
			wg.Wait()
			lin := tr.Stats(bundle.DefaultShape).Linear()
			linear := func(l transformer.TraceLayer) bool {
				return l.Kind == transformer.KindProjection || l.Kind == transformer.KindMLP
			}
			shared := 0
			for i, l := range tr.Layers {
				for j := range i {
					if linear(l) && linear(tr.Layers[j]) && tr.Layers[j].In == l.In {
						shared++
						if lin[i] != lin[j] {
							t.Fatalf("%s trace, %d walkers: layers %d and %d read one input but hold two Activities", name, walkers, j, i)
						}
					}
				}
			}
			if shared == 0 {
				t.Fatalf("%s trace shares no input; the test would prove nothing", name)
			}
		}
	}
}
