package transformer

import (
	"fmt"
	"sync"

	"repro/internal/bundle"
)

// statsMemo holds a trace's spike statistics, one ShapeStats per bundle
// shape asked for.
type statsMemo struct {
	mu sync.Mutex
	m  map[bundle.Shape]*ShapeStats
}

// ShapeStats is the memo of one trace's spike statistics under one bundle
// shape: the bundle.Activity of every linear layer's input, and the per-row
// counts n_ab of every unmasked attention layer's query and key (what ECP
// thresholds). Each of the two parts is computed once, by the first caller
// that needs it, tagging every distinct tensor once (Wq, Wk and Wv read one
// input); concurrent callers wait for it and then share it. It holds counts
// only — O(distinct counts) per linear input and one int32 per bundle row
// per query or key — and is immutable once built.
type ShapeStats struct {
	tr    *Trace
	shape bundle.Shape

	linOnce sync.Once
	lin     []*bundle.Activity

	rowsOnce sync.Once
	q, k     []*bundle.RowActivity
}

// Stats returns the trace's statistics memo under sh. The memo lives on the
// trace and is collected with it. Its entries key on the tensors the layers
// point to when they are first built, so the trace's layers must not change
// once it has been simulated; a copy of a trace made with new Layers gets
// its own memo.
func (tr *Trace) Stats(sh bundle.Shape) *ShapeStats {
	if sh.BSt <= 0 || sh.BSn <= 0 {
		// Checked before an entry exists, so a bad shape leaves no
		// half-built entry behind.
		panic(fmt.Sprintf("transformer: invalid bundle shape %+v", sh))
	}
	tr.stats.mu.Lock()
	defer tr.stats.mu.Unlock()
	s, ok := tr.stats.m[sh]
	if !ok {
		if tr.stats.m == nil {
			tr.stats.m = map[bundle.Shape]*ShapeStats{}
		}
		s = &ShapeStats{tr: tr, shape: sh}
		tr.stats.m[sh] = s
	}
	return s
}

// Linear returns the Activity of every projection and MLP layer's input,
// indexed like the trace's Layers (nil at other layers).
func (s *ShapeStats) Linear() []*bundle.Activity {
	s.linOnce.Do(s.buildLinear)
	return s.lin
}

// Rows returns n_ab of the query and key of every attention layer that
// carries no keep-masks, indexed like the trace's Layers (nil at other
// layers).
func (s *ShapeStats) Rows() (q, k []*bundle.RowActivity) {
	s.rowsOnce.Do(s.buildRows)
	return s.q, s.k
}

// builders recycles the tag and counting buffers of memo builds.
var builders = sync.Pool{New: func() any { return new(bundle.ActivityBuilder) }}

func (s *ShapeStats) buildLinear() {
	b := builders.Get().(*bundle.ActivityBuilder)
	defer builders.Put(b)
	s.lin = make([]*bundle.Activity, len(s.tr.Layers))
	for i, l := range s.tr.Layers {
		if l.Kind == KindProjection || l.Kind == KindMLP {
			s.lin[i] = s.sharedLinear(i)
			if s.lin[i] == nil {
				s.lin[i] = b.Activity(l.In, s.shape)
			}
		}
	}
}

// sharedLinear returns the Activity built for an earlier linear layer that
// reads layer i's input, or nil.
func (s *ShapeStats) sharedLinear(i int) *bundle.Activity {
	for j := i - 1; j >= 0; j-- {
		if s.lin[j] != nil && s.tr.Layers[j].In == s.tr.Layers[i].In {
			return s.lin[j]
		}
	}
	return nil
}

func (s *ShapeStats) buildRows() {
	b := builders.Get().(*bundle.ActivityBuilder)
	defer builders.Put(b)
	s.q = make([]*bundle.RowActivity, len(s.tr.Layers))
	s.k = make([]*bundle.RowActivity, len(s.tr.Layers))
	for i, l := range s.tr.Layers {
		if l.Kind == KindAttention && l.QKeep == nil {
			s.q[i], s.k[i] = b.Rows(l.Q, s.shape), b.Rows(l.K, s.shape)
		}
	}
}
