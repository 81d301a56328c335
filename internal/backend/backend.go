// Package backend abstracts "an accelerator model bound to a concrete
// configuration" behind one interface, so the evaluation stack — the DSE
// engine, the figure drivers, cmd/dse — can treat Bishop, the PTB baseline
// (HPCA'22 [27]), and the edge-GPU baseline uniformly. The paper's headline
// results (§6.1–§6.2) are cross-accelerator comparisons; with the backend a
// first-class coordinate, Pareto frontiers and sweeps compare *across*
// accelerators instead of only across Bishop configurations.
//
// A static table maps each backend kind's stable name ("bishop", "ptb",
// "gpu") to its default and decode functions. A Backend value carries its
// options, exposes them through a strict JSON codec (unknown fields
// rejected, mirroring accel.EncodeOptions/DecodeOptions), and fingerprints
// itself with a field-order-stable Digest following the accel.Options.Digest
// conventions (FNV-1a over the canonical encoding of the *normalized*
// options, with the backend name folded in so equal options on different
// backends never collide).
package backend

import (
	"fmt"
	"maps"
	"slices"
	"strings"

	"repro/internal/accel"
	"repro/internal/baseline/gpu"
	"repro/internal/baseline/ptb"
	"repro/internal/hw"
	"repro/internal/transformer"
)

// Backend is one accelerator model bound to a concrete configuration.
// Implementations are small immutable values; Simulate must be safe for
// concurrent use (every simulator in this repo treats traces as read-only).
type Backend interface {
	// Name is the table name of the backend kind ("bishop", "ptb", "gpu").
	Name() string
	// Simulate runs the trace through the model and returns the per-layer
	// and end-to-end latency/energy report.
	Simulate(tr *transformer.Trace) *hw.Report
	// EncodeOptions serializes the bound options canonically (struct
	// declaration order), so equal configurations produce identical bytes.
	EncodeOptions() ([]byte, error)
	// Digest is a stable fingerprint of (name, normalized options): equal
	// across field reordering and default spellings, different across
	// backends and across any effective knob change.
	Digest() uint64
}

// kind is one entry of the static backend table.
type kind struct {
	// def returns the kind's paper-default configuration.
	def func() Backend
	// decode builds a Backend from a strict-JSON options document (the
	// bytes a matching EncodeOptions produced). Unknown fields reject.
	decode func(options []byte) (Backend, error)
}

// kinds maps each backend name to its constructors.
var kinds = map[string]kind{
	BishopName: kindOf(accel.DefaultOptions, accel.DecodeOptions, func(o accel.Options) Backend { return Bishop{Opt: o} }),
	GPUName:    kindOf(gpu.DefaultOptions, gpu.DecodeOptions, func(o gpu.Options) Backend { return GPU{Opt: o} }),
	PTBName:    kindOf(ptb.DefaultOptions, ptb.DecodeOptions, func(o ptb.Options) Backend { return PTB{Opt: o} }),
}

// kindOf builds a table entry from an options package's default and strict
// decoder and the Backend that wraps its options.
func kindOf[O any](def func() O, decode func([]byte) (O, error), wrap func(O) Backend) kind {
	return kind{
		def: func() Backend { return wrap(def()) },
		decode: func(options []byte) (Backend, error) {
			o, err := decode(options)
			if err != nil {
				return nil, err
			}
			return wrap(o), nil
		},
	}
}

// Names returns the backend names, sorted.
func Names() []string { return slices.Sorted(maps.Keys(kinds)) }

func lookup(name string) (kind, error) {
	k, ok := kinds[name]
	if !ok {
		return kind{}, fmt.Errorf("backend: unknown backend %q (registered: %s)",
			name, strings.Join(Names(), ", "))
	}
	return k, nil
}

// Default returns the named backend in its paper-default configuration.
func Default(name string) (Backend, error) {
	k, err := lookup(name)
	if err != nil {
		return nil, err
	}
	return k.def(), nil
}

// Decode builds the named backend from a strict-JSON options document; nil
// or empty options mean the default configuration.
func Decode(name string, options []byte) (Backend, error) {
	k, err := lookup(name)
	if err != nil {
		return nil, err
	}
	if len(options) == 0 {
		return k.def(), nil
	}
	return k.decode(options)
}

// FoldName folds a backend name into an options digest, FNV-1a style — the
// shared convention that keeps equal options on different backends from
// colliding.
func FoldName(h uint64, name string) uint64 {
	const prime64 = 1099511628211
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= prime64
	}
	return h
}
