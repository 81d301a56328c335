package accel

// Tests of the trace statistics memo the walk reads: a walk over a warm memo
// reports exactly what a walk over a fresh, unshared copy of the trace
// reports, concurrent walks of a fresh trace fill one memo without changing
// any report, and the memo stays small next to the spike data it
// summarizes.

import (
	"fmt"
	"reflect"
	"slices"
	"sync"
	"testing"
	"unsafe"

	"repro/internal/bundle"
	"repro/internal/hw"
	"repro/internal/spike"
	"repro/internal/transformer"
	"repro/internal/workload"
)

// memoOptionSets widens simulatorOptionSets with the option sets whose
// memo reads differ: explicit θ_s of 0, balancing targets at both ends, a
// second bundle shape, and ECP pruning under a shape other than the
// simulator's, both coarser and finer.
func memoOptionSets() map[string]Options {
	sets := simulatorOptionSets()
	with := func(name string, set func(*Options)) {
		opt := DefaultOptions()
		set(&opt)
		sets[name] = opt
	}
	with("θ=0", func(o *Options) { o.ThetaS = 0 })
	// A target of exactly 0 normalizes to the default 0.5; this one rounds
	// to zero dense features on every layer.
	with("target≈0", func(o *Options) { o.SplitTarget = 1e-9 })
	with("target=1", func(o *Options) { o.SplitTarget = 1 })
	with("4x4", func(o *Options) { o.Shape = bundle.Shape{BSt: 4, BSn: 4} })
	with("ecp 4x4 on 4x2", func(o *Options) {
		o.ECP = &bundle.ECPConfig{Shape: bundle.Shape{BSt: 4, BSn: 4}, ThetaQ: 5, ThetaK: 3}
	})
	with("ecp 1x2 on 2x2", func(o *Options) {
		o.Shape = bundle.Shape{BSt: 2, BSn: 2}
		o.ECP = &bundle.ECPConfig{Shape: bundle.Shape{BSt: 1, BSn: 2}, ThetaQ: 2, ThetaK: 4}
	})
	return sets
}

// sortedNames returns the option-set names in a fixed order.
func sortedNames(sets map[string]Options) []string {
	var names []string
	for name := range sets {
		names = append(names, name)
	}
	slices.Sort(names)
	return names
}

// silenced returns a trace whose linear inputs have every third feature
// column cleared, so their activity runs start at zero active bundles.
func silenced(tr *transformer.Trace) *transformer.Trace {
	cp := unshared(tr)
	for _, l := range cp.Layers {
		if l.In == nil {
			continue
		}
		for d := 0; d < l.In.D; d += 3 {
			for t := 0; t < l.In.T; t++ {
				for n := 0; n < l.In.N; n++ {
					l.In.Set(t, n, d, false)
				}
			}
		}
	}
	return cp
}

func TestMemoWarmMatchesCold(t *testing.T) {
	traces := map[string]*transformer.Trace{
		"synthetic": trace(4, false, 3),
		"rewired":   rewired(trace(4, false, 3)),
		"silent":    silenced(trace(4, false, 3)),
		"model":     ecpModelTrace(t),
	}
	if lin := traces["silent"].Stats(bundle.DefaultShape).Linear(); lin[0] == nil || lin[0].Runs[0].Active != 0 {
		t.Fatal("the silenced trace's first input has no zero-activity run")
	}
	sets := memoOptionSets()
	names := sortedNames(sets)
	for trName, tr := range traces {
		// Warm the memo under every shape and option set, twice over, so
		// each read below follows reads of every other kind.
		for round := 0; round < 2; round++ {
			for _, name := range names {
				Simulate(tr, sets[name])
			}
		}
		for _, name := range names {
			got, want := Simulate(tr, sets[name]), NewSimulator(sets[name]).Simulate(unshared(tr))
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s trace, %s: memo-warm report differs from a cold walk of an unshared copy", trName, name)
			}
		}
	}
}

// TestMemoConcurrentFill has 8 goroutines walk one fresh trace at once, each
// starting from a different option set, so the memo's parts are built while
// other walks wait on them. Every report must equal the one a sequential
// walk of an identical fresh trace produced. Run it under -race.
func TestMemoConcurrentFill(t *testing.T) {
	sets := memoOptionSets()
	names := sortedNames(sets)
	want := map[string]*hw.Report{}
	ref := trace(4, false, 11)
	for _, name := range names {
		want[name] = Simulate(ref, sets[name])
	}
	tr := trace(4, false, 11)
	errs := make(chan error, 8*len(names))
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range names {
				name := names[(g+k)%len(names)]
				if got := Simulate(tr, sets[name]); !reflect.DeepEqual(got, want[name]) {
					errs <- fmt.Errorf("goroutine %d: %s differs from the sequential walk", g, name)
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// memoBytes is the heap held by the memo under one shape: the per-layer
// pointer slices and every distinct Activity and RowActivity with its
// counts.
func memoBytes(ss *transformer.ShapeStats) int {
	lin := ss.Linear()
	q, k := ss.Rows()
	n := int(unsafe.Sizeof(uintptr(0))) * (len(lin) + len(q) + len(k))
	seen := map[*bundle.Activity]bool{}
	for _, a := range lin {
		if a != nil && !seen[a] {
			seen[a] = true
			n += int(unsafe.Sizeof(*a)) + len(a.Runs)*int(unsafe.Sizeof(bundle.Run{}))
		}
	}
	for _, r := range append(q, k...) {
		if r != nil {
			n += int(unsafe.Sizeof(*r)) + len(r.PerRow)*int(unsafe.Sizeof(r.PerRow[0]))
		}
	}
	return n
}

// TestMemoFootprint reports the memo's bytes per (trace, shape) for Model 5
// under each bundle shape the sweeps explore, and pins them under 5% of the
// bytes of the spike words the trace holds.
func TestMemoFootprint(t *testing.T) {
	tr := workload.SyntheticTrace(transformer.ModelZoo()[4], workload.Scenarios()[5], workload.TraceOptions{}, 1)
	words := 0
	seen := map[*spike.Tensor]bool{}
	for _, l := range tr.Layers {
		for _, s := range []*spike.Tensor{l.In, l.Q, l.K, l.V} {
			if s != nil && !seen[s] {
				seen[s] = true
				words += len(s.Words())
			}
		}
	}
	spikeBytes := 8 * words
	for _, sh := range []bundle.Shape{{BSt: 4, BSn: 2}, {BSt: 2, BSn: 2}, {BSt: 1, BSn: 2}, {BSt: 4, BSn: 4}} {
		opt := DefaultOptions()
		opt.Shape = sh
		opt.ECP = &bundle.ECPConfig{Shape: sh, ThetaQ: 6, ThetaK: 6}
		fresh := &transformer.Trace{Cfg: tr.Cfg, Layers: tr.Layers}
		Simulate(fresh, opt)
		b := memoBytes(fresh.Stats(sh))
		share := float64(b) / float64(spikeBytes)
		t.Logf("Model 5, %dx%d: memo %d B, spike words %d B (%.2f%%)", sh.BSt, sh.BSn, b, spikeBytes, 100*share)
		if share >= 0.05 {
			t.Errorf("%dx%d: memo holds %.2f%% of the trace's spike bytes, want under 5%%", sh.BSt, sh.BSn, 100*share)
		}
	}
}
