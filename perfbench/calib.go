package main

import (
	"crypto/sha256"
	"runtime"
	"sort"
	"time"
)

// The host this benchmark runs on is often a few vCPUs of a shared machine
// whose speed drifts by a third over minutes as neighbours come and go. So a
// run times a fixed reference kernel, owned by the benchmark and independent
// of the repository's code, before each set-up and between its timed
// operations (before each grid, search or fleet run at most once a
// calibrationGap, and between the rounds of the daemon loop), and scales its
// host timings to the speed at which the kernel's median time is
// refKernelSeconds: a time is multiplied by refKernelSeconds ÷ that median, a
// rate divided by it. A change to the program moves the scaled figures as it
// moves the raw ones; a drift in the machine's speed moves the kernel and the
// program alike and cancels. One kernel time is noisy, so the scale is the
// median over every kernel time of a phase (set-up, or the measured phase and
// a calibration after it), not the one next to an operation.

// refKernelSeconds is the reference kernel's time at the reference speed,
// about what it takes on a quiet 2-vCPU x86-64 host.
const refKernelSeconds = 0.045

// refKernelRounds and refKernelHashes size one kernel run.
const (
	refKernelRounds = 10
	refKernelHashes = 300
)

// refKernelSum is what refKernel returns; a different value means the kernel
// did not run as written.
const refKernelSum = refKernelRounds*(2000+5003) + refKernelDigestByte

// refKernelDigestByte is the first byte of the kernel's final SHA-256.
const refKernelDigestByte = 225

// refKernel is work shaped like the simulator's: a heap-heavy part (many
// small slices in a map, a growing slice, a sort) and a compute-bound part
// (SHA-256 over a buffer that fits in cache). Neither part alone tracks the
// simulator's speed as well as both together.
func refKernel() int {
	sum := 0
	for k := 0; k < refKernelRounds; k++ {
		m := make(map[int][]int)
		for i := 0; i < 2000; i++ {
			v := make([]int, 64)
			v[i%64] = i
			m[i] = v
		}
		var xs []float64
		for i := 0; i < 20000; i++ {
			xs = append(xs, float64((i*7919)%10007))
		}
		sort.Float64s(xs)
		sum += len(m) + int(xs[len(xs)/2])
	}
	buf := make([]byte, 1<<16)
	var d [sha256.Size]byte
	for k := 0; k < refKernelHashes; k++ {
		d = sha256.Sum256(buf)
		buf[k%len(buf)] = d[0]
	}
	return sum + int(d[0])
}

// calibrationReps is how many kernel times one calibration takes.
const calibrationReps = 3

// calibrationGap is the least time between two calibrations.
const calibrationGap = time.Second

// calibrate times the reference kernel calibrationReps times, each on one
// goroutine and a collected heap, unless it ran less than calibrationGap
// ago. It leaves a collected heap behind.
func (e *env) calibrate() error {
	if time.Since(e.calibrated) < calibrationGap {
		return nil
	}
	for r := 0; r < calibrationReps; r++ {
		runtime.GC()
		t0 := time.Now()
		sum := refKernel()
		e.kernelSeconds = append(e.kernelSeconds, time.Since(t0).Seconds())
		if sum != refKernelSum {
			return checkf("reference kernel returned %d, want %d", sum, refKernelSum)
		}
	}
	runtime.GC()
	e.calibrated = time.Now()
	return nil
}

// scale is the factor that takes host times measured since the last
// recalibrate to the reference speed.
func (e *env) scale() float64 { return ratio(refKernelSeconds, median(e.kernelSeconds)) }

// recalibrate returns the scale of the phase that ends (set-up) and starts
// the next one (the measured phase) with a fresh calibration, so a slow
// set-up does not skew the measured phase's scale or the other way round.
func (e *env) recalibrate() float64 {
	s := e.scale()
	e.kernelSeconds, e.calibrated = nil, time.Time{}
	return s
}
