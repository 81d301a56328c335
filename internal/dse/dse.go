package dse

import (
	"context"
	"encoding/json"
	"fmt"
	"math"

	"repro/internal/accel"
	"repro/internal/backend"
	"repro/internal/bundle"
	"repro/internal/hw"
	"repro/internal/transformer"
	"repro/internal/workload"
)

// Record is the persisted outcome of evaluating one point: the coordinate
// itself (so a checkpoint is self-describing), the headline metrics, and the
// per-group totals the sensitivity figures query. JSON numbers round-trip
// bit-exactly (encoding/json emits shortest-round-trip floats), which is
// what makes resumed and sharded sweeps merge bit-identically.
//
// The backend coordinate is carried as a tag plus the backend's own
// canonical options document. The canonical spelling of the bishop backend
// is the *absent* tag (with the configuration in Opt), which keeps every
// bishop record byte-identical to the pre-backend format: PR 3/4-era
// checkpoints decode as bishop, and a resumed legacy sweep appends lines
// indistinguishable from the legacy writer's.
type Record struct {
	Index   int    `json:"index"`             // position in the enumerated point set
	Digest  string `json:"digest"`            // %016x of Point.Digest
	Backend string `json:"backend,omitempty"` // backend tag; "" = bishop
	Model   int    `json:"model"`
	BSA     bool   `json:"bsa"`
	Seed    uint64 `json:"seed"`

	// Fidelity is the trace-scale divisor the evaluation ran at (see
	// workload.TraceOptions.Scale). The canonical spelling of full fidelity
	// is the *absent* tag, so full-fidelity records — every record that
	// existed before the multi-fidelity axis — keep their historical bytes,
	// and legacy checkpoints decode and resume bit-identically.
	Fidelity int `json:"fidelity,omitempty"`

	// Opt is the Bishop configuration of a bishop record; nil otherwise.
	Opt *accel.Options `json:"opt,omitempty"`
	// BackendOpt is the canonical options document of a non-bishop record
	// (the bytes its Backend.EncodeOptions produced); nil for bishop.
	BackendOpt json.RawMessage `json:"backend_opt,omitempty"`

	LatencyMS float64 `json:"latency_ms"`
	EnergyMJ  float64 `json:"energy_mj"`
	EDP       float64 `json:"edp"` // pJ·s

	Total      hw.Result            `json:"total"`
	GroupOrder []string             `json:"group_order"`
	Groups     map[string]hw.Result `json:"groups"`
}

// BackendName returns the name of the record's backend ("bishop"
// for the canonical empty tag).
func (r Record) BackendName() string {
	if r.Backend == "" {
		return backend.BishopName
	}
	return r.Backend
}

// Point reconstructs the design-space coordinate of the record. It panics
// on a non-bishop record whose options document does not decode — records
// built by Evaluate or loaded through a checkpoint are always valid, so
// this is unreachable short of hand-constructed Records.
func (r Record) Point() Point {
	p := Point{Model: r.Model, BSA: r.BSA}
	if r.Backend == "" || r.Backend == backend.BishopName {
		if r.Opt != nil {
			p.Opt = *r.Opt
		}
		return p
	}
	b, err := backend.Decode(r.Backend, r.BackendOpt)
	if err != nil {
		panic(fmt.Sprintf("dse: record %s: %v", r.Digest, err))
	}
	p.Backend = b
	return p
}

// Valid reports whether a decoded record is self-consistent — bishop
// records carry their Options, non-bishop records carry a decodable options
// document — canonicalizing an explicitly spelled bishop tag (and an
// explicit fidelity 1, which means full fidelity) in place. Invalid
// checkpoint lines are skipped on load and simply re-evaluate; the serving
// layer's result cache uses it to reject corrupt or stale cache entries.
func (r *Record) Valid() bool {
	if r.Fidelity < 0 {
		return false
	}
	if r.Fidelity == 1 {
		r.Fidelity = 0
	}
	switch r.Backend {
	case "", backend.BishopName:
		if r.Opt == nil {
			return false
		}
		r.Backend, r.BackendOpt = "", nil
		return true
	default:
		_, err := backend.Decode(r.Backend, r.BackendOpt)
		return err == nil
	}
}

// NonGroupTotal sums the group totals for every group except the named one,
// in group order — e.g. the projection/MLP share when excluding "ATN".
func (r Record) NonGroupTotal(exclude string) hw.Result {
	var t hw.Result
	for _, g := range r.GroupOrder {
		if g != exclude {
			t.Add(r.Groups[g])
		}
	}
	return t
}

// DigestKey renders a point digest the way checkpoints and record lines
// store it (%016x) — the key Plan adoption and the result cache speak.
// DigestKeys renders a whole point set.
func DigestKey(p Point) string { return fmt.Sprintf("%016x", p.Digest()) }

// Evaluate simulates one point at the given trace seed and returns its
// record. The synthetic trace comes from the process-wide workload cache
// keyed by model/scenario/seed only — the backend and every hardware knob
// are simulation-side, the trace itself is always generated at the default
// bundle shape, matching the paper's §6.5 methodology — so sweeping hardware
// axes, and evaluating the same workload on several backends, reuses one
// trace per (model, BSA, seed) triple.
func Evaluate(p Point, seed uint64) Record { return EvaluateAt(p, seed, 0) }

// EvaluateAt simulates one point against the fidelity's reduced-volume
// proxy trace (fidelity k > 1 divides the trace's spike volume by ~k; 0 and
// 1 both mean the full trace and produce a record byte-identical to
// Evaluate's). Low-fidelity records carry the fidelity tag, so they can
// never be mistaken for — or satisfy a resume of — a full evaluation.
func EvaluateAt(p Point, seed uint64, fidelity int) Record {
	return evaluate(p, DigestKey(p), seed, fidelity)
}

// evaluate is EvaluateAt with the point's digest key already rendered: a
// Plan passes the key it holds for each unit, so a sweep renders every
// digest once.
func evaluate(p Point, key string, seed uint64, fidelity int) Record {
	if fidelity <= 1 {
		fidelity = 0
	}
	p = p.canon()
	cfg := transformer.ModelZoo()[p.Model-1]
	sc := workload.Scenarios()[p.Model]
	tr := workload.CachedTrace(cfg, sc, workload.TraceOptions{BSA: p.BSA, Scale: fidelity}, seed)
	rec := Record{Digest: key, Model: p.Model, BSA: p.BSA, Seed: seed, Fidelity: fidelity}
	var rep *hw.Report
	if p.Backend == nil {
		opt := p.Opt
		rec.Opt = &opt
		rep = accel.Simulate(tr, opt)
	} else {
		rec.Backend = p.Backend.Name()
		data, err := p.Backend.EncodeOptions()
		if err != nil {
			panic(fmt.Sprintf("dse: %s options not encodable: %v", rec.Backend, err)) // unreachable: Grid/Validate admit only encodable options
		}
		rec.BackendOpt = data
		rep = p.Backend.Simulate(tr)
	}
	order, totals := rep.GroupTotals()
	rec.LatencyMS, rec.EnergyMJ, rec.EDP = rep.LatencyMS(), rep.EnergyMJ(), rep.EDP()
	rec.Total, rec.GroupOrder, rec.Groups = rep.Total, order, totals
	return rec
}

// Config parameterizes one sweep invocation.
type Config struct {
	Seed uint64 // trace seed shared by every point

	// Checkpoint is the JSONL record file. Non-empty makes the sweep
	// resumable: points whose digest already appears in the file are not
	// re-evaluated (see Plan for the adoption rule), and fresh evaluations
	// are appended in unit order, so the file's bytes do not depend on Jobs.
	Checkpoint string

	// Shard i of Shards partitions the point set deterministically by
	// enumeration index (see Units: a digest belongs to the shard of its
	// first occurrence), so n machines given the same spec and -shard 0/n …
	// (n-1)/n cover the space exactly once. Zero values mean "the whole
	// space".
	Shard, Shards int

	Jobs int // parallel evaluators (<=0 → GOMAXPROCS)

	// Fidelity is the trace-scale divisor every evaluation runs at (0 or 1 =
	// full fidelity). Adoption of checkpointed and cached records is
	// fidelity-scoped exactly as it is seed-scoped: a cheap proxy record
	// never satisfies a full-fidelity sweep, and vice versa.
	Fidelity int

	// Select, when non-nil, restricts evaluation to points whose digest
	// (%016x) appears in it — the successive-halving driver's survivor
	// filter. Indices are untouched: a selected point keeps the index it has
	// in the full enumeration, so its records stay byte-identical to an
	// unrestricted sweep's.
	Select []string

	// OnRecord, when non-nil, observes every *fresh* evaluation, with its
	// enumeration index set, once the record is durable in the checkpoint.
	// Records the plan adopted — from the checkpoint or a result cache (see
	// Plan.Adopt) — are not passed to it.
	// Calls come one at a time and in unit order, so the callback may touch
	// shared state without further synchronization; they are not made under
	// a lock any evaluator waits on, so a slow callback does not stall the
	// sweep's evaluators. It is the serving layer's record-streaming and
	// cache-publication hook.
	OnRecord func(Record)
}

func (c *Config) normalize() error {
	if c.Shards <= 0 {
		c.Shards = 1
	}
	if c.Shard < 0 || c.Shard >= c.Shards {
		return fmt.Errorf("dse: shard %d outside [0,%d)", c.Shard, c.Shards)
	}
	if c.Fidelity <= 1 {
		c.Fidelity = 0
	}
	return nil
}

// Units is the work plan of the sweep over points: in enumeration order,
// the index of the first occurrence of every distinct point digest whose
// first occurrence falls in shard Shard of Shards (point i belongs to shard
// i mod Shards) and whose digest passes Select. Seeded-random samples repeat
// coordinates; each digest is one unit, owned by exactly one shard, so n
// shards of the same spec together evaluate exactly the units of the
// unsharded sweep. Every runner — a Plan's to-do list, the fleet
// coordinator's shard inventory (Plan.ShardUnits), the search candidate
// list — takes its work list from here.
func (c Config) Units(points []Point) []int { return c.units(DigestKeys(points)) }

// units is Units over the points' digest keys.
func (c Config) units(keys []string) []int {
	shards := max(c.Shards, 1)
	sel := digestSet(c.Select)
	seen := make(map[string]bool, len(keys))
	var units []int
	for i, key := range keys {
		if seen[key] {
			continue
		}
		seen[key] = true
		if i%shards == c.Shard && (sel == nil || sel[key]) {
			units = append(units, i)
		}
	}
	return units
}

// DigestKeys returns DigestKey of every point. Marshaling the options
// dominates the cost of a point digest, and a grid repeats every Bishop
// configuration once per (model, BSA) pair, so each distinct configuration
// is marshaled once.
func DigestKeys(points []Point) []string {
	// optKey is a comparable spelling of accel.Options: the ECP pointer is
	// replaced by the value it points to.
	type optKey struct {
		opt    accel.Options
		ecp    bundle.ECPConfig
		hasECP bool
	}
	memo := map[optKey]uint64{}
	keys := make([]string, len(points))
	for i, p := range points {
		p = p.canon()
		if p.Backend != nil {
			keys[i] = DigestKey(p)
			continue
		}
		k := optKey{opt: p.Opt}
		if e := p.Opt.ECP; e != nil {
			k.opt.ECP, k.ecp, k.hasECP = nil, *e, true
		}
		h, ok := memo[k]
		if exact := !signedZero(p.Opt); !ok || !exact {
			h = p.Opt.Digest()
			if exact {
				memo[k] = h
			}
		}
		keys[i] = fmt.Sprintf("%016x", p.fold(h))
	}
	return keys
}

// signedZero reports whether a float knob of o holds negative zero, which
// == treats as +0 but the JSON encoder, and so the digest, spells "-0".
// TestSignedZeroCoversEveryFloat keeps the list complete.
func signedZero(o accel.Options) bool {
	t := o.Tech
	for _, f := range [...]float64{t.ClockHz, t.EAcc32, t.EAcc8, t.EMul8, t.EAnd, t.EMux, t.EReg,
		t.DRAMBandwidth, t.EDRAMPerByte, t.PDRAM, t.StaticFrac, o.SplitTarget} {
		if f == 0 && math.Signbit(f) {
			return true
		}
	}
	return false
}

// digestSet indexes a Select list; nil (no restriction) stays nil.
func digestSet(digests []string) map[string]bool {
	if digests == nil {
		return nil
	}
	set := make(map[string]bool, len(digests))
	for _, d := range digests {
		set[d] = true
	}
	return set
}

// ResultSet is the merged outcome of a sweep: every record available for the
// requested point set (freshly evaluated, or recovered from the checkpoint —
// including records another shard contributed to a shared checkpoint file),
// one per occurrence in point-enumeration order.
type ResultSet struct {
	Points  []Point
	Records []Record
	// Evaluated counts the records this run committed fresh; the remaining
	// Records were adopted from the checkpoint or the result cache.
	Evaluated int
}

// Complete reports whether every point of the set has a record.
func (rs *ResultSet) Complete() bool { return len(rs.Records) == len(rs.Points) }

// Sweep runs one Plan: it evaluates the units of cfg the checkpoint does not
// hold, commits their records in unit order, and returns the merged result
// set. On cancellation it waits for the evaluations in flight, commits
// them, and returns the error; a later call with the same arguments resumes
// where the sweep stopped.
func Sweep(ctx context.Context, points []Point, cfg Config) (*ResultSet, error) {
	p, err := OpenPlan(points, cfg)
	if err != nil {
		return nil, err
	}
	defer p.Close()
	err = p.Run(ctx)
	return p.Result(), err
}
