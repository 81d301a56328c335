package hw

import "fmt"

// Result is the latency/energy outcome of simulating one unit of work (a
// layer on a core, or an aggregate). Energies are split by where they are
// dissipated so the experiments can report breakdowns; Cycles is the
// occupied-core cycle count with double-buffered memory overlap already
// applied (latency = max(compute, memory) per tile).
type Result struct {
	Cycles int64

	// Energy components, pJ.
	EPE     float64 // datapath (accumulators, AND/MUX logic, registers)
	EGLB    float64 // on-chip SRAM accesses
	EDRAM   float64 // off-chip traffic
	EStatic float64 // leakage/clock over the occupied period

	// Traffic accounting.
	DRAMBytes int64
	GLBBytes  int64

	// Op accounting (for FLOP-equivalent comparisons).
	OpsAcc, OpsMul, OpsAnd int64
}

// Add accumulates o into r (sequential composition: cycles add).
func (r *Result) Add(o Result) {
	r.Cycles += o.Cycles
	r.EPE += o.EPE
	r.EGLB += o.EGLB
	r.EDRAM += o.EDRAM
	r.EStatic += o.EStatic
	r.DRAMBytes += o.DRAMBytes
	r.GLBBytes += o.GLBBytes
	r.OpsAcc += o.OpsAcc
	r.OpsMul += o.OpsMul
	r.OpsAnd += o.OpsAnd
}

// Parallel merges o as concurrently executed work: cycles take the max,
// energies add.
func (r *Result) Parallel(o Result) {
	if o.Cycles > r.Cycles {
		r.Cycles = o.Cycles
	}
	r.EPE += o.EPE
	r.EGLB += o.EGLB
	r.EDRAM += o.EDRAM
	r.EStatic += o.EStatic
	r.DRAMBytes += o.DRAMBytes
	r.GLBBytes += o.GLBBytes
	r.OpsAcc += o.OpsAcc
	r.OpsMul += o.OpsMul
	r.OpsAnd += o.OpsAnd
}

// EnergyPJ returns the total energy in picojoules.
func (r Result) EnergyPJ() float64 { return r.EPE + r.EGLB + r.EDRAM + r.EStatic }

// EnergyMJ returns the total energy in millijoules.
func (r Result) EnergyMJ() float64 { return r.EnergyPJ() * 1e-9 }

// LatencySec converts cycles to seconds under tech.
func (r Result) LatencySec(t Tech) float64 { return float64(r.Cycles) * t.CyclePeriod() }

// LatencyMS converts cycles to milliseconds under tech.
func (r Result) LatencyMS(t Tech) float64 { return r.LatencySec(t) * 1e3 }

// EDP returns the energy-delay product in pJ·s under tech.
func (r Result) EDP(t Tech) float64 { return r.EnergyPJ() * r.LatencySec(t) }

// String summarizes the result for logs.
func (r Result) String() string {
	return fmt.Sprintf("Result{cycles:%d energy:%.3g pJ dram:%d B}", r.Cycles, r.EnergyPJ(), r.DRAMBytes)
}

// ChargeStatic adds background energy for the occupied period given the
// core's synthesized peak power share in watts.
func (r *Result) ChargeStatic(t Tech, peakW float64) {
	r.EStatic += t.StaticFrac * peakW * (float64(r.Cycles) * t.CyclePeriod()) * 1e12
}

// ChargeDRAMBackground adds the DRAM subsystem's background power (refresh,
// PHY, controller — the paper's 323.9 mW figure) over the occupied period.
func (r *Result) ChargeDRAMBackground(t Tech) {
	r.EStatic += t.PDRAM * (float64(r.Cycles) * t.CyclePeriod()) * 1e12
}

// CeilDiv is the integer ceiling division used throughout the cycle models.
func CeilDiv(a, b int64) int64 {
	if b <= 0 {
		panic("hw: CeilDiv by non-positive")
	}
	return (a + b - 1) / b
}
