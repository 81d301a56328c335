// Package dse is the design-space exploration engine: it turns the
// accelerator models into a searchable design space. A Space declares axes
// over accel.Options (array geometry, TTB volume, stratification threshold /
// split target, ECP threshold, tech node) crossed with workload scenarios
// (Table 2 model × ±BSA) and, since the backend refactor, with the
// accelerator *backend* itself (Bishop, the PTB baseline, the edge GPU —
// every backend.Backend kind); the engine enumerates grid or
// seeded-random point sets, evaluates them in parallel on the sched worker
// pool against cached synthetic traces, persists every evaluated point to a
// resumable/shardable JSONL checkpoint, and extracts latency/energy/EDP
// Pareto frontiers — including cross-accelerator frontiers.
package dse

import (
	"fmt"
	"slices"

	"repro/internal/accel"
	"repro/internal/backend"
	"repro/internal/baseline/gpu"
	"repro/internal/baseline/ptb"
	"repro/internal/bundle"
	"repro/internal/hw"
	"repro/internal/tensor"
	"repro/internal/transformer"
)

// Point is one design-space coordinate: a workload scenario plus a full
// accelerator configuration on one backend. Points are pure values; their
// identity is the Digest, which is what the checkpoint and sharding
// machinery key on.
type Point struct {
	Model int  // Table 2 model index (1–5)
	BSA   bool // use the BSA-trained activity statistics

	// Opt is the Bishop configuration; it is meaningful when Backend is
	// nil — the canonical spelling of a bishop point, kept for
	// compatibility with the pre-backend engine (PR 3/4 checkpoints).
	Opt accel.Options

	// Backend, when non-nil, selects a non-bishop accelerator with its
	// bound options. Grid, Sample, and Record.Point never store the bishop
	// backend here (canon folds it into Opt), so the two spellings of a
	// bishop point digest identically.
	Backend backend.Backend
}

// canon normalizes the bishop spelling: a backend.Bishop value folds into
// the legacy Opt field so every bishop point has one representation.
func (p Point) canon() Point {
	if b, ok := p.Backend.(backend.Bishop); ok {
		p.Opt, p.Backend = b.Opt, nil
	}
	return p
}

// BackendName returns the name of the point's backend ("bishop" when
// Backend is nil).
func (p Point) BackendName() string {
	p = p.canon()
	if p.Backend != nil {
		return p.Backend.Name()
	}
	return backend.BishopName
}

// Digest fingerprints the point: the workload coordinates folded into the
// configuration digest. Stable across JSON field ordering and across
// processes. Bishop points use the bare accel.Options digest — the exact
// pre-backend formula — so checkpoints written before the backend
// coordinate existed keep their digests; other backends use the name-folded
// backend.Backend digest, which cannot collide with it.
func (p Point) Digest() uint64 {
	p = p.canon()
	if p.Backend != nil {
		return p.fold(p.Backend.Digest())
	}
	return p.fold(p.Opt.Digest())
}

// fold mixes the workload coordinates into a configuration digest.
func (p Point) fold(h uint64) uint64 {
	const prime64 = 1099511628211
	h ^= uint64(p.Model)
	h *= prime64
	if p.BSA {
		h ^= 1
		h *= prime64
	}
	return h
}

// Label renders the point compactly for tables and logs. Non-bishop points
// show only the workload coordinate — the backend name is rendered as its
// own frontier-table column, and the bound options live in the record.
func (p Point) Label() string {
	p = p.canon()
	s := fmt.Sprintf("m%d", p.Model)
	if p.BSA {
		s += "+bsa"
	}
	if p.Backend != nil {
		return s
	}
	o := p.Opt
	s += fmt.Sprintf(" %dx%d", o.Shape.BSt, o.Shape.BSn)
	if !o.Stratify {
		s += " homo"
	} else if o.ThetaS >= 0 {
		s += fmt.Sprintf(" th%d", o.ThetaS)
	} else {
		s += fmt.Sprintf(" split%.2f", o.SplitTarget)
	}
	if o.ECP != nil {
		s += fmt.Sprintf(" ecp%d", o.ECP.ThetaQ)
	}
	return s
}

// Space declares the sweep axes. Empty axes take the single-element default
// noted on each field, so a zero Space describes exactly one point: Model 3
// under the full-featured Bishop configuration.
// The JSON tags are the SweepSpec wire format: a Space embedded in a spec
// document uses these lower-case axis names, while the nested option/config
// values (hw.Tech, ptb.Options, …) keep their canonical Go-field encodings —
// the same spellings the checkpoint records use.
type Space struct {
	Models []int  `json:"models,omitempty"` // Table 2 indices (default {3})
	BSA    []bool `json:"bsa,omitempty"`    // default {false}

	// Backends selects the accelerators to evaluate every workload on
	// (default {"bishop"}). Bishop points cross the full Bishop axis set
	// below; ptb and gpu points cross their own option axes.
	Backends []string `json:"backends,omitempty"`

	Shapes       []bundle.Shape `json:"shapes,omitempty"`        // TTB volumes (default {bundle.DefaultShape})
	ThetaS       []int          `json:"thetas,omitempty"`        // stratification thresholds; -1 = balancing (default {-1})
	SplitTargets []float64      `json:"split_targets,omitempty"` // dense fractions, crossed only with ThetaS=-1 (default {0.5})
	Stratify     []bool         `json:"stratify,omitempty"`      // default {true}; false = homogeneous dense-only ablation
	ECPThetas    []int          `json:"ecp_thetas,omitempty"`    // ECP θ_p; 0 = pruning off (default {0})

	Arrays []hw.ArrayConfig `json:"arrays,omitempty"` // compute provisioning (default {hw.BishopArray()})
	Techs  []hw.Tech        `json:"techs,omitempty"`  // technology node (default {hw.Default28nm()})

	// Per-backend option axes for the baselines (defaults: the §6.1
	// equal-resource PTB configuration and the Jetson Nano).
	PTB []ptb.Options `json:"ptb,omitempty"` // crossed when Backends includes "ptb"
	GPU []gpu.Options `json:"gpu,omitempty"` // crossed when Backends includes "gpu"
}

func (s Space) normalized() Space {
	if len(s.Models) == 0 {
		s.Models = []int{3}
	}
	if len(s.BSA) == 0 {
		s.BSA = []bool{false}
	}
	if len(s.Backends) == 0 {
		s.Backends = []string{backend.BishopName}
	}
	if len(s.Shapes) == 0 {
		s.Shapes = []bundle.Shape{bundle.DefaultShape}
	}
	if len(s.ThetaS) == 0 {
		s.ThetaS = []int{-1}
	}
	if len(s.SplitTargets) == 0 {
		s.SplitTargets = []float64{0.5}
	}
	if len(s.Stratify) == 0 {
		s.Stratify = []bool{true}
	}
	if len(s.ECPThetas) == 0 {
		s.ECPThetas = []int{0}
	}
	if len(s.Arrays) == 0 {
		s.Arrays = []hw.ArrayConfig{hw.BishopArray()}
	}
	if len(s.Techs) == 0 {
		s.Techs = []hw.Tech{hw.Default28nm()}
	}
	if len(s.PTB) == 0 {
		s.PTB = []ptb.Options{ptb.DefaultOptions()}
	}
	if len(s.GPU) == 0 {
		s.GPU = []gpu.Options{gpu.DefaultOptions()}
	}
	return s
}

// Validate reports an invalid axis value (models out of Table 2 range,
// non-positive bundle shapes, unknown backend names, invalid baseline
// options) before a sweep burns time on it.
func (s Space) Validate() error {
	n := s.normalized()
	zoo := len(transformer.ModelZoo())
	for _, m := range n.Models {
		if m < 1 || m > zoo {
			return fmt.Errorf("dse: model %d outside Table 2 range 1–%d", m, zoo)
		}
	}
	for _, name := range n.Backends {
		if !slices.Contains(backend.Names(), name) {
			return fmt.Errorf("dse: unknown backend %q (registered: %v)", name, backend.Names())
		}
	}
	for _, sh := range n.Shapes {
		// A point's ECP shape is its TTB shape, so each must be positive.
		opt := accel.Options{Shape: sh, ECP: &bundle.ECPConfig{Shape: sh}}
		if err := opt.Validate(); err != nil {
			return fmt.Errorf("dse: invalid TTB shape: %w", err)
		}
	}
	for _, f := range n.SplitTargets {
		if f < 0 || f > 1 {
			return fmt.Errorf("dse: split target %g outside [0,1]", f)
		}
	}
	for _, th := range n.ECPThetas {
		if th < 0 {
			return fmt.Errorf("dse: negative ECP theta %d", th)
		}
	}
	for _, o := range n.PTB {
		if err := o.Validate(); err != nil {
			return fmt.Errorf("dse: ptb %w", err)
		}
	}
	for _, o := range n.GPU {
		if err := o.Validate(); err != nil {
			return fmt.Errorf("dse: gpu %w", err)
		}
	}
	return nil
}

// makePoint assembles one bishop coordinate from axis values. ECP θ=0 means
// pruning off; the ECP shape always follows the point's TTB shape. Knobs
// that cannot affect the simulation (the split target under an explicit
// threshold, both stratifier knobs on the homogeneous core) are pinned to
// their defaults so equivalent configurations digest identically.
func makePoint(model int, bsa bool, sh bundle.Shape, stratify bool,
	thetaS int, split float64, ecpTheta int, arr hw.ArrayConfig, tech hw.Tech) Point {
	if !stratify {
		thetaS, split = -1, 0.5
	} else if thetaS >= 0 {
		split = 0.5
	}
	opt := accel.Options{
		Tech: tech, Array: arr, Shape: sh,
		Stratify: stratify, ThetaS: thetaS, SplitTarget: split,
	}
	if ecpTheta > 0 {
		opt.ECP = &bundle.ECPConfig{Shape: sh, ThetaQ: ecpTheta, ThetaK: ecpTheta}
	}
	return Point{Model: model, BSA: bsa, Opt: opt}
}

// backendPoints enumerates the configurations of one non-bishop backend for
// a workload coordinate, in axis order. Validate rejects every other name.
func (s Space) backendPoints(model int, bsa bool, name string) []Point {
	var pts []Point
	switch name {
	case backend.PTBName:
		for _, o := range s.PTB {
			pts = append(pts, Point{Model: model, BSA: bsa, Backend: backend.PTB{Opt: o}})
		}
	case backend.GPUName:
		for _, o := range s.GPU {
			pts = append(pts, Point{Model: model, BSA: bsa, Backend: backend.GPU{Opt: o}})
		}
	}
	return pts
}

// Grid enumerates the full cross product in a fixed nested order (models
// outermost, then ±BSA, then the backend axis, tech innermost on the bishop
// branch). ThetaS ≥ 0 fixes the threshold directly and is not crossed with
// SplitTargets (the split target only matters to the balancing strategy), so
// the grid holds no aliased duplicates. The order is deterministic: it
// defines each point's index for sharding — and on a bishop-only space it is
// exactly the pre-backend enumeration, so existing shard assignments and
// checkpoints stay valid.
func (s Space) Grid() []Point {
	n := s.normalized()
	var pts []Point
	for _, m := range n.Models {
		for _, bsa := range n.BSA {
			for _, be := range n.Backends {
				if be != backend.BishopName {
					pts = append(pts, n.backendPoints(m, bsa, be)...)
					continue
				}
				for _, sh := range n.Shapes {
					for _, strat := range n.Stratify {
						thetas := n.ThetaS
						if !strat {
							thetas = thetas[:1] // threshold unused on the homogeneous core
						}
						for _, th := range thetas {
							splits := n.SplitTargets
							if !strat || th >= 0 {
								splits = splits[:1]
							}
							for _, sp := range splits {
								for _, ecp := range n.ECPThetas {
									for _, arr := range n.Arrays {
										for _, tech := range n.Techs {
											pts = append(pts, makePoint(m, bsa, sh, strat, th, sp, ecp, arr, tech))
										}
									}
								}
							}
						}
					}
				}
			}
		}
	}
	return pts
}

// Sample draws count points from the space with a seeded RNG: each axis is
// sampled independently and uniformly (workload first, then the backend,
// then the chosen backend's option axes), the seeded-random search mode for
// grids too large to enumerate. Duplicate coordinates are kept (the sweep
// engine dedupes by digest), and the sequence is fully determined by seed.
//
// The draw count is taken literally even when it exceeds the number of
// distinct points in the space: Sample always terminates after exactly
// count draws, repeats coordinates as the RNG dictates, and never costs
// more than the distinct-point count in simulations (Sweep evaluates each
// digest once). The sequence for a given seed is prefix-stable —
// Sample(k, seed) is exactly the first k draws of Sample(n, seed) for any
// n ≥ k — which is what lets a random search grow its budget without
// invalidating earlier checkpoints.
func (s Space) Sample(count int, seed uint64) []Point {
	n := s.normalized()
	rng := tensor.NewRNG(seed)
	pick := func(k int) int { return rng.Intn(k) }
	pts := make([]Point, 0, count)
	for i := 0; i < count; i++ {
		m := n.Models[pick(len(n.Models))]
		bsa := n.BSA[pick(len(n.BSA))]
		// A single-backend space skips the backend draw entirely: Intn
		// consumes RNG state even for a one-element axis, and a bishop-only
		// space must reproduce the pre-backend sample stream exactly so
		// legacy random-search checkpoints keep matching their digests.
		be := n.Backends[0]
		if len(n.Backends) > 1 {
			be = n.Backends[pick(len(n.Backends))]
		}
		if be != backend.BishopName {
			bp := n.backendPoints(m, bsa, be)
			pts = append(pts, bp[pick(len(bp))])
			continue
		}
		sh := n.Shapes[pick(len(n.Shapes))]
		strat := n.Stratify[pick(len(n.Stratify))]
		th := n.ThetaS[pick(len(n.ThetaS))]
		sp := n.SplitTargets[pick(len(n.SplitTargets))]
		ecp := n.ECPThetas[pick(len(n.ECPThetas))]
		arr := n.Arrays[pick(len(n.Arrays))]
		tech := n.Techs[pick(len(n.Techs))]
		if !strat {
			th = n.ThetaS[0]
		}
		if !strat || th >= 0 {
			sp = n.SplitTargets[0]
		}
		pts = append(pts, makePoint(m, bsa, sh, strat, th, sp, ecp, arr, tech))
	}
	return pts
}
