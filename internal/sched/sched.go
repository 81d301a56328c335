// Package sched is the shared concurrent execution layer of the simulator:
// a bounded worker pool that fans independent work items out across up to
// GOMAXPROCS goroutines while keeping results deterministic. Callers get
// back a slice indexed exactly like their input (slot i holds fn(i)), so a
// downstream ordered reduction produces bit-identical floating-point sums
// no matter how many workers ran or how the OS scheduled them.
//
// The pool is context-cancellable (no new items start once the context is
// done) and panic-isolating: a panic inside a work item is captured as a
// *PanicError instead of tearing down the process, and the remaining items
// are abandoned.
package sched

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// Workers resolves a requested worker count: values <= 0 mean "one worker
// per available CPU" (GOMAXPROCS).
func Workers(n int) int {
	if n <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// PanicError wraps a panic recovered inside a work item.
type PanicError struct {
	Index int    // work-item index that panicked
	Value any    // the recovered panic value
	Stack []byte // stack trace captured at recovery
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("sched: work item %d panicked: %v", e.Index, e.Value)
}

// protect runs fn(i), converting a panic into a *PanicError.
func protect(fn func(int) error, i int) (err error) {
	defer func() {
		if v := recover(); v != nil {
			err = &PanicError{Index: i, Value: v, Stack: debug.Stack()}
		}
	}()
	return fn(i)
}

// Map runs fn(i) for every i in [0,n) on up to workers goroutines
// (Workers(workers) of them) and blocks until all started items finish.
// Once an item fails or the context is cancelled, no further items start;
// the error reported is the failing item with the smallest index, or the
// context error if only cancellation occurred. fn must be safe to call
// concurrently for distinct i.
func Map(ctx context.Context, n, workers int, fn func(int) error) error {
	if n <= 0 {
		return nil
	}
	w := Workers(workers)
	if w > n {
		w = n
	}
	var (
		next     atomic.Int64
		done     atomic.Int64
		stop     atomic.Bool
		mu       sync.Mutex
		firstIdx = -1
		firstErr error
		wg       sync.WaitGroup
	)
	record := func(i int, err error) {
		mu.Lock()
		if firstIdx < 0 || i < firstIdx {
			firstIdx, firstErr = i, err
		}
		mu.Unlock()
		stop.Store(true)
	}
	for g := 0; g < w; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				if ctx.Err() != nil {
					stop.Store(true)
					return
				}
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if err := protect(fn, i); err != nil {
					record(i, err)
				} else {
					done.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return firstErr
	}
	if done.Load() == int64(n) {
		// Every item completed; a context that expired only after the last
		// item is not a failure.
		return nil
	}
	return ctx.Err()
}

// Collect runs fn(i) for every i in [0,n) across the pool and returns the
// results in input order: out[i] == fn(i). On error the slice is returned
// as-is — slots whose items did not run hold zero values.
func Collect[T any](ctx context.Context, n, workers int, fn func(int) (T, error)) ([]T, error) {
	out := make([]T, n)
	err := Map(ctx, n, workers, func(i int) error {
		v, err := fn(i)
		if err != nil {
			return err
		}
		out[i] = v
		return nil
	})
	return out, err
}

// Do runs a fixed set of heterogeneous tasks across the pool and blocks
// until all finish, with the same error semantics as Map.
func Do(ctx context.Context, workers int, tasks ...func() error) error {
	return Map(ctx, len(tasks), workers, func(i int) error { return tasks[i]() })
}
