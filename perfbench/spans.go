package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call from the benchmark into a layer's public function.
// Start and End are offsets from the recorder's epoch; Key identifies the
// unit of work the call served: the point digest for an evaluation, the job
// id for daemon and fleet operations.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Name   string `json:"name"`
	Key    string `json:"key,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Bytes  int64  `json:"bytes,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// recorder keeps spans in memory until the run ends.
type recorder struct {
	epoch time.Time
	next  atomic.Int64

	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// active is a span that has started and not yet ended.
type active struct {
	r *recorder
	s span
}

// start opens a span; parent 0 makes it a root.
func (r *recorder) start(name string, parent int64, key string) *active {
	return &active{r: r, s: span{ID: r.next.Add(1), Parent: parent, Name: name, Key: key,
		Start: int64(time.Since(r.epoch))}}
}

func (a *active) id() int64 { return a.s.ID }

// end closes the span and files it.
func (a *active) end() { a.endBytes(0) }

// endBytes closes the span, recording how many bytes the call moved.
func (a *active) endBytes(n int64) {
	a.s.End = int64(time.Since(a.r.epoch))
	a.s.Bytes = n
	a.r.mu.Lock()
	a.r.spans = append(a.r.spans, a.s)
	a.r.mu.Unlock()
}

// snapshot returns every filed span.
func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// spanIndex answers the aggregate questions the per-layer metrics ask.
type spanIndex struct {
	all      []span
	byName   map[string][]span
	children map[int64][]span
}

func indexSpans(spans []span) *spanIndex {
	ix := &spanIndex{all: spans, byName: map[string][]span{}, children: map[int64][]span{}}
	for _, s := range spans {
		ix.byName[s.Name] = append(ix.byName[s.Name], s)
		if s.Parent != 0 {
			ix.children[s.Parent] = append(ix.children[s.Parent], s)
		}
	}
	return ix
}

func (ix *spanIndex) count(name string) int { return len(ix.byName[name]) }

// durationsMS lists the durations of every span with the given name, in ms.
func (ix *spanIndex) durationsMS(name string) []float64 {
	var out []float64
	for _, s := range ix.byName[name] {
		out = append(out, ms(s.dur()))
	}
	return out
}

// totalMS sums the durations of the named spans.
func (ix *spanIndex) totalMS(name string) float64 {
	var t float64
	for _, s := range ix.byName[name] {
		t += ms(s.dur())
	}
	return t
}

// self returns a span's duration minus the part of its interval that its
// child spans cover.
func (ix *spanIndex) self(s span) time.Duration {
	kids := ix.children[s.ID]
	if len(kids) == 0 {
		return s.dur()
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, s.Start), min(k.End, s.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var covered, curLo, curHi int64
	for i, v := range iv {
		switch {
		case i == 0:
			curLo, curHi = v[0], v[1]
		case v[0] > curHi:
			covered += curHi - curLo
			curLo, curHi = v[0], v[1]
		case v[1] > curHi:
			curHi = v[1]
		}
	}
	if len(iv) > 0 {
		covered += curHi - curLo
	}
	return s.dur() - time.Duration(covered)
}

// writeSpans writes one JSON object per span to path.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("write spans: %w", err)
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}
