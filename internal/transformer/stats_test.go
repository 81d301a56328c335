package transformer

import (
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/bundle"
	"repro/internal/spike"
	"repro/internal/tensor"
)

// TestStatsRejectsInvalidShape pins that an invalid bundle shape panics
// before the memo holds an entry for it, so no half-built entry is left for
// a later walk to read.
func TestStatsRejectsInvalidShape(t *testing.T) {
	tr := &Trace{}
	for _, sh := range []bundle.Shape{{}, {BSt: -1, BSn: 2}, {BSt: 4, BSn: 0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%+v: Stats did not panic", sh)
				}
			}()
			tr.Stats(sh)
		}()
	}
	if len(tr.stats.m) != 0 {
		t.Fatalf("invalid shapes left %d memo entries", len(tr.stats.m))
	}
}

// randomSpikes returns a T×N×D tensor whose bits fire with probability p.
func randomSpikes(rng *tensor.RNG, T, N, D int, p float64) *spike.Tensor {
	s := spike.NewTensor(T, N, D)
	for t := range T {
		for n := range N {
			for d := range D {
				if rng.Float64() < p {
					s.Set(t, n, d, true)
				}
			}
		}
	}
	return s
}

// fillTrace builds a small two-block trace for the memo tests. In each
// block Wq, Wk and Wv read one input and W1 reads Wo's input, so two
// linear inputs are shared, one of them by non-adjacent layers; block 1's
// attention carries keep-masks, so only block 0's query and key are rows
// tasks. Sizes are ragged against every shape the tests use.
func fillTrace() *Trace {
	rng := tensor.NewRNG(3)
	const T, N, D = 6, 13, 70
	tr := &Trace{Cfg: Config{Blocks: 2, T: T, N: N, D: D}}
	for b := range 2 {
		x := randomSpikes(rng, T, N, D, 0.2)
		o := randomSpikes(rng, T, N, D, 0.1)
		h := randomSpikes(rng, T, N, 2*D, 0.05)
		atn := TraceLayer{Block: b, Group: "ATN", Kind: KindAttention, Heads: 2,
			Q: randomSpikes(rng, T, N, D, 0.3), K: randomSpikes(rng, T, N, D, 0.15), V: randomSpikes(rng, T, N, D, 0.2)}
		if b == 1 {
			atn.QKeep, atn.KKeep = make([][]bool, T), make([][]bool, T)
		}
		lin := func(group, name string, kind LayerKind, in *spike.Tensor, dOut int) TraceLayer {
			return TraceLayer{Block: b, Group: group, Name: name, Kind: kind, In: in, DIn: in.D, DOut: dOut}
		}
		tr.Layers = append(tr.Layers,
			lin("P1", "Wq", KindProjection, x, D), lin("P1", "Wk", KindProjection, x, D), lin("P1", "Wv", KindProjection, x, D),
			atn,
			lin("P2", "Wo", KindProjection, o, D), lin("MLP", "W1", KindMLP, o, 2*D), lin("MLP", "W2", KindMLP, h, D))
	}
	return tr
}

// TestStatsFillAnyCallers has 1, 2 and 8 goroutines fill a fresh memo at
// once (8 is more callers than either part has tasks), half asking for the
// rows first. Every caller must get the same slices, equal in every count
// to a single caller's, and layers that read one input must share one
// Activity. Run it under -race.
func TestStatsFillAnyCallers(t *testing.T) {
	base := fillTrace()
	for _, sh := range []bundle.Shape{{BSt: 4, BSn: 2}, {BSt: 3, BSn: 5}} {
		ref := (&Trace{Cfg: base.Cfg, Layers: base.Layers}).Stats(sh)
		wantLin := ref.Linear()
		wantQ, wantK := ref.Rows()
		for _, callers := range []int{1, 2, 8} {
			ss := (&Trace{Cfg: base.Cfg, Layers: base.Layers}).Stats(sh)
			type got struct {
				lin  []*bundle.Activity
				q, k []*bundle.RowActivity
			}
			res := make([]got, callers)
			start := make(chan struct{})
			var wg sync.WaitGroup
			for c := range callers {
				wg.Add(1)
				go func() {
					defer wg.Done()
					<-start
					if c%2 == 1 {
						res[c].q, res[c].k = ss.Rows()
					}
					res[c].lin = ss.Linear()
					res[c].q, res[c].k = ss.Rows()
				}()
			}
			close(start)
			wg.Wait()
			for c, r := range res {
				if &r.lin[0] != &res[0].lin[0] || &r.q[0] != &res[0].q[0] || &r.k[0] != &res[0].k[0] {
					t.Fatalf("%v, %d callers: caller %d got other slices than caller 0", sh, callers, c)
				}
			}
			lin, q, k := res[0].lin, res[0].q, res[0].k
			for i, l := range base.Layers {
				if !equalPtrs(lin[i], wantLin[i]) || !equalPtrs(q[i], wantQ[i]) || !equalPtrs(k[i], wantK[i]) {
					t.Fatalf("%v, %d callers: layer %d (%s) differs from a single caller's", sh, callers, i, l.Name)
				}
				for j := range i {
					if l.In != nil && base.Layers[j].In == l.In && lin[j] != lin[i] {
						t.Fatalf("%v, %d callers: layers %d and %d read one input but hold two Activities", sh, callers, j, i)
					}
				}
			}
		}
	}
}

// equalPtrs reports whether a and b are both nil or point to equal values.
func equalPtrs[T any](a, b *T) bool {
	if a == nil || b == nil {
		return a == b
	}
	return reflect.DeepEqual(*a, *b)
}

// TestStatsFillPanicReleasesWaiters pins that a task that panics is still
// marked done: callers whose tasks succeed return, and so does a later
// call, instead of waiting for the panicked task forever.
func TestStatsFillPanicReleasesWaiters(t *testing.T) {
	tr := fillTrace()
	tr.Layers[4].In = nil // Wo: tagging a nil tensor panics
	ss := tr.Stats(bundle.DefaultShape)
	done := make(chan bool, 4)
	for range 4 {
		go func() {
			defer func() { done <- recover() != nil }()
			ss.Linear()
		}()
	}
	panics := 0
	for range 4 {
		select {
		case p := <-done:
			if p {
				panics++
			}
		case <-time.After(30 * time.Second):
			t.Fatal("a caller still waits for the panicked task")
		}
	}
	if panics != 1 {
		t.Fatalf("%d callers panicked, want exactly the one that built the nil input", panics)
	}
	if lin := ss.Linear(); lin[4] != nil || lin[0] == nil {
		t.Fatal("a later call did not return the memo with only the panicked layer missing")
	}
}
