package sched

import (
	"context"
	"errors"
	"math"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// work is a deliberately order-sensitive floating-point computation: if
// results ever landed in the wrong slot, the caller's ordered reduction
// would drift.
func work(i int) float64 {
	v := 1.0
	for k := 1; k <= 200; k++ {
		v += math.Sin(float64(i*k)) / float64(k)
	}
	return v
}

func collectSums(t *testing.T, workers int) []float64 {
	t.Helper()
	out, err := Collect(context.Background(), 64, workers, func(i int) (float64, error) {
		return work(i), nil
	})
	if err != nil {
		t.Fatalf("collect: %v", err)
	}
	return out
}

func TestDeterministicAcrossGOMAXPROCS(t *testing.T) {
	old := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(old)
	seq := collectSums(t, 0) // 0 → GOMAXPROCS = 1 worker
	runtime.GOMAXPROCS(8)
	par := collectSums(t, 0) // 0 → GOMAXPROCS = 8 workers
	for i := range seq {
		if seq[i] != par[i] {
			t.Fatalf("slot %d differs: %v vs %v", i, seq[i], par[i])
		}
	}
}

func TestExplicitWorkerCounts(t *testing.T) {
	ref := collectSums(t, 1)
	for _, w := range []int{2, 4, 8, 100} {
		got := collectSums(t, w)
		for i := range ref {
			if got[i] != ref[i] {
				t.Fatalf("workers=%d slot %d differs", w, i)
			}
		}
	}
}

func TestCancellationMidBatch(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var started atomic.Int64
	err := Map(ctx, 1000, 4, func(i int) error {
		if started.Add(1) == 10 {
			cancel()
		}
		time.Sleep(100 * time.Microsecond)
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if n := started.Load(); n >= 1000 {
		t.Fatalf("cancellation did not stop the batch: %d items ran", n)
	}
}

func TestCancellationAfterCompletionIsNotAnError(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var finished atomic.Int64
	err := Map(ctx, 8, 4, func(i int) error {
		// The last item to run cancels the context on its way out; every
		// item still completed, so the batch must not report an error.
		if finished.Add(1) == 8 {
			cancel()
		}
		return nil
	})
	if err != nil {
		t.Fatalf("all items completed; want nil, got %v", err)
	}
}

func TestPanicIsolation(t *testing.T) {
	out, err := Collect(context.Background(), 16, 4, func(i int) (int, error) {
		if i == 3 {
			panic("boom")
		}
		return i * i, nil
	})
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("want *PanicError, got %v", err)
	}
	if pe.Index != 3 || pe.Value != "boom" || len(pe.Stack) == 0 {
		t.Fatalf("panic not captured faithfully: %+v", pe)
	}
	// Slots that completed must hold their results; slot 3 must be zero.
	if out[3] != 0 {
		t.Fatalf("panicked slot holds %d", out[3])
	}
}

func TestPanicLowestIndexWins(t *testing.T) {
	// One worker takes items in order: item 2 panics before item 5 would.
	_, err := Collect(context.Background(), 8, 1, func(i int) (int, error) {
		if i == 2 || i == 5 {
			panic(i)
		}
		return i, nil
	})
	var pe *PanicError
	if !errors.As(err, &pe) || pe.Index != 2 {
		t.Fatalf("want panic at index 2, got %v", err)
	}
}

func TestErrorStopsIssuing(t *testing.T) {
	var ran atomic.Int64
	sentinel := errors.New("sentinel")
	err := Map(context.Background(), 10000, 2, func(i int) error {
		ran.Add(1)
		if i == 0 {
			return sentinel
		}
		time.Sleep(50 * time.Microsecond)
		return nil
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("want sentinel, got %v", err)
	}
	if n := ran.Load(); n >= 10000 {
		t.Fatalf("error did not stop the batch: %d items ran", n)
	}
}

func TestDoAndEmpty(t *testing.T) {
	if err := Map(context.Background(), 0, 4, nil); err != nil {
		t.Fatalf("empty map: %v", err)
	}
	var a, b int
	err := Do(context.Background(), 0,
		func() error { a = 1; return nil },
		func() error { b = 2; return nil })
	if err != nil || a != 1 || b != 2 {
		t.Fatalf("do failed: %v %d %d", err, a, b)
	}
}

func TestWorkersResolution(t *testing.T) {
	if Workers(5) != 5 {
		t.Fatal("explicit count must pass through")
	}
	if Workers(0) != runtime.GOMAXPROCS(0) || Workers(-1) != runtime.GOMAXPROCS(0) {
		t.Fatal("non-positive counts must resolve to GOMAXPROCS")
	}
}
