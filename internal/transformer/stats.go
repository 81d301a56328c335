package transformer

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

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
// thresholds). Each of the two parts is filled once, by every caller that
// asks for it before it is complete: the first lists the part's tensors
// (each distinct linear input once, since Wq, Wk and Wv read one; each
// query and key), and all of them build tensors in turn until none is left
// (fill). It holds counts only — O(distinct counts) per linear input and
// one int32 per bundle row per query or key — and is immutable once built.
type ShapeStats struct {
	tr    *Trace
	shape bundle.Shape

	linFill fill
	lin     []*bundle.Activity

	rowsFill fill
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
	s.run(&s.linFill, linearPart)
	return s.lin
}

// Rows returns n_ab of the query and key of every attention layer that
// carries no keep-masks, indexed like the trace's Layers (nil at other
// layers).
func (s *ShapeStats) Rows() (q, k []*bundle.RowActivity) {
	s.run(&s.rowsFill, rowsPart)
	return s.q, s.k
}

// part names one of the memo's two parts.
type part uint8

const (
	linearPart part = iota // task i is layer i's input
	rowsPart               // task i is layer i/2's query (even i) or key (odd i)
)

// fill is the shared build of one memo part. The part's tasks are numbered
// by layer, so listing them takes no memory. The first caller sizes the
// part; then each caller claims tasks through an atomic counter, builds
// them with a pooled ActivityBuilder of its own, and returns once every
// task, its own and the other callers', is done. So concurrent evaluations
// of one trace split a part's work instead of waiting for one of them to
// do it all, and since a result depends only on (tensor, shape), the memo
// is the same at any number of callers. Once it is complete, a call is
// three atomic loads.
type fill struct {
	once    sync.Once
	tasks   int
	next    atomic.Int32   // next task to claim
	pending sync.WaitGroup // tasks not yet done
}

// builders recycles the tag and counting buffers of memo builds.
var builders = sync.Pool{New: func() any { return new(bundle.ActivityBuilder) }}

// run fills part p through f.
func (s *ShapeStats) run(f *fill, p part) {
	f.once.Do(func() {
		f.tasks = len(s.tr.Layers)
		if p == linearPart {
			s.lin = make([]*bundle.Activity, f.tasks)
		} else {
			s.q = make([]*bundle.RowActivity, f.tasks)
			s.k = make([]*bundle.RowActivity, f.tasks)
			f.tasks *= 2
		}
		f.pending.Add(f.tasks)
	})
	if int(f.next.Load()) < f.tasks {
		b := builders.Get().(*bundle.ActivityBuilder)
		for i := int(f.next.Add(1)) - 1; i < f.tasks; i = int(f.next.Add(1)) - 1 {
			s.build(f, b, p, i)
		}
		builders.Put(b)
	}
	f.pending.Wait()
}

// build runs task i of part p. It marks the task done even when it panics,
// so the other callers do not wait for it forever.
func (s *ShapeStats) build(f *fill, b *bundle.ActivityBuilder, p part, i int) {
	defer f.pending.Done()
	layers := s.tr.Layers
	if p == rowsPart {
		l := layers[i/2]
		switch {
		case l.Kind != KindAttention || l.QKeep != nil:
		case i%2 == 0:
			s.q[i/2] = b.Rows(l.Q, s.shape)
		default:
			s.k[i/2] = b.Rows(l.K, s.shape)
		}
		return
	}
	// The first linear layer that reads an input builds its Activity for
	// every linear layer that reads it (Wq, Wk and Wv share one).
	in := layers[i].In
	if !isLinear(layers[i]) || slices.ContainsFunc(layers[:i], func(l TraceLayer) bool { return isLinear(l) && l.In == in }) {
		return
	}
	a := b.Activity(in, s.shape)
	for j := i; j < len(layers); j++ {
		if isLinear(layers[j]) && layers[j].In == in {
			s.lin[j] = a
		}
	}
}

// isLinear reports whether l is a projection or MLP layer.
func isLinear(l TraceLayer) bool { return l.Kind == KindProjection || l.Kind == KindMLP }
