package dse

import (
	"context"
	"encoding/json"
	"fmt"
	"sort"
	"sync"

	"repro/internal/accel"
	"repro/internal/backend"
	"repro/internal/hw"
	"repro/internal/sched"
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

// BackendName returns the registry name of the record's backend ("bishop"
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

// valid reports whether a decoded checkpoint record is self-consistent —
// bishop records carry their Options, non-bishop records carry a decodable
// options document — canonicalizing an explicitly spelled bishop tag (and
// an explicit fidelity 1, which means full fidelity) along the way. Invalid
// lines are skipped on load and simply re-evaluate.
func (r *Record) valid() bool {
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

// Valid reports whether a decoded record is self-consistent (bishop records
// carry their Options, non-bishop records a decodable options document),
// canonicalizing an explicit bishop tag in place. The serving layer's result
// cache uses it to reject corrupt or stale cache entries.
func (r *Record) Valid() bool { return r.valid() }

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

// digestKey renders a point digest the way checkpoints store it.
func digestKey(p Point) string { return fmt.Sprintf("%016x", p.Digest()) }

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
	if fidelity <= 1 {
		fidelity = 0
	}
	p = p.canon()
	cfg := transformer.ModelZoo()[p.Model-1]
	sc := workload.Scenarios()[p.Model]
	tr := workload.CachedTrace(cfg, sc, workload.TraceOptions{BSA: p.BSA, Scale: fidelity}, seed)
	rec := Record{Digest: digestKey(p), Model: p.Model, BSA: p.BSA, Seed: seed, Fidelity: fidelity}
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
	// re-evaluated, and every fresh evaluation is appended as it completes.
	Checkpoint string

	// Shard i of Shards partitions the point set deterministically by
	// enumeration index (point i belongs to shard i mod Shards), so n
	// machines given the same spec and -shard 0/n … (n-1)/n cover the space
	// exactly once. Zero values mean "the whole space".
	Shard, Shards int

	Jobs int // parallel evaluators (<=0 → GOMAXPROCS)

	// Fidelity is the trace-scale divisor every evaluation runs at (0 or 1 =
	// full fidelity). Checkpoint and Preloaded adoption is fidelity-scoped
	// exactly as it is seed-scoped: a cheap proxy record never satisfies a
	// full-fidelity sweep, and vice versa.
	Fidelity int

	// Select, when non-nil, restricts evaluation to points whose digest
	// (%016x) appears in it — the successive-halving driver's survivor
	// filter. Indices are untouched: a selected point keeps the index it has
	// in the full enumeration, so its records stay byte-identical to an
	// unrestricted sweep's.
	Select []string

	// Preloaded seeds the sweep with records that are already known — the
	// serving layer's digest-addressed result cache. Records carrying the
	// sweep's seed are adopted into the result set without re-evaluation,
	// exactly like checkpoint records; they are not re-appended to the
	// checkpoint (they are already durable wherever they came from).
	Preloaded []Record

	// OnRecord, when non-nil, observes every *fresh* evaluation right after
	// it lands in the checkpoint, with its enumeration index set. Calls are
	// serialized by the sweep's internal lock, so the callback may touch
	// shared state without further synchronization — it is the serving
	// layer's record-streaming and cache-publication hook.
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

// ResultSet is the merged outcome of a sweep: every record available for the
// requested point set (freshly evaluated, or recovered from the checkpoint —
// including records another shard contributed to a shared checkpoint file),
// in point-enumeration order.
type ResultSet struct {
	Points  []Point
	Records []Record
	// Evaluated counts the points this Sweep call simulated fresh; the
	// remaining Records were recovered from the checkpoint.
	Evaluated int
}

// Complete reports whether every point of the set has a record.
func (rs *ResultSet) Complete() bool { return len(rs.Records) == len(rs.Points) }

// ByDigest returns the record for the given point, if present.
func (rs *ResultSet) ByDigest(p Point) (Record, bool) {
	key := digestKey(p)
	for _, r := range rs.Records {
		if r.Digest == key {
			return r, true
		}
	}
	return Record{}, false
}

// Sweep evaluates the shard-assigned subset of points that is not already
// checkpointed, appending each record to the checkpoint as it lands, and
// returns the merged result set. On cancellation the records completed so
// far are already durable in the checkpoint and the error is returned; a
// later call with the same arguments resumes where the sweep stopped.
func Sweep(ctx context.Context, points []Point, cfg Config) (*ResultSet, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	done := map[string]Record{}
	var ckpt *checkpoint
	if cfg.Checkpoint != "" {
		var err error
		if ckpt, err = openCheckpoint(cfg.Checkpoint); err != nil {
			return nil, err
		}
		defer ckpt.Close()
		for _, r := range ckpt.Records() {
			// A record from a different trace seed or fidelity describes a
			// different experiment: never let it satisfy this sweep's points.
			if r.Seed == cfg.Seed && r.Fidelity == cfg.Fidelity {
				done[r.Digest] = r
			}
		}
	}
	for _, r := range cfg.Preloaded {
		// Same seed and fidelity discipline as the checkpoint; malformed
		// injected records are dropped and their points simply re-evaluate.
		if r.Seed == cfg.Seed && r.valid() && r.Fidelity == cfg.Fidelity {
			done[r.Digest] = r
		}
	}
	var sel map[string]bool
	if cfg.Select != nil {
		sel = make(map[string]bool, len(cfg.Select))
		for _, d := range cfg.Select {
			sel[d] = true
		}
	}

	// Shard partition and survivor selection, then drop points that are
	// already evaluated — checkpointed at this seed, or duplicated within the
	// point set itself (seeded-random samples repeat coordinates). Digests
	// key the skip test so a checkpoint survives re-ordering of the spec;
	// indices are recomputed from the current enumeration.
	var todo []int
	queued := map[string]bool{}
	for i := range points {
		if i%cfg.Shards != cfg.Shard {
			continue
		}
		key := digestKey(points[i])
		if sel != nil && !sel[key] {
			continue
		}
		if _, ok := done[key]; ok || queued[key] {
			continue
		}
		queued[key] = true
		todo = append(todo, i)
	}

	var mu sync.Mutex
	fresh := map[string]Record{}
	err := sched.Map(ctx, len(todo), cfg.Jobs, func(k int) error {
		i := todo[k]
		rec := EvaluateAt(points[i], cfg.Seed, cfg.Fidelity)
		rec.Index = i
		mu.Lock()
		defer mu.Unlock()
		if ckpt != nil {
			if werr := ckpt.Append(rec); werr != nil {
				return werr
			}
		}
		fresh[rec.Digest] = rec
		if cfg.OnRecord != nil {
			cfg.OnRecord(rec)
		}
		return nil
	})

	rs := &ResultSet{Points: points, Evaluated: len(fresh)}
	for i, p := range points {
		key := digestKey(p)
		if sel != nil && !sel[key] {
			continue
		}
		rec, ok := fresh[key]
		if !ok {
			if rec, ok = done[key]; !ok {
				continue // not evaluated (other shard, or cancelled)
			}
		}
		rec.Index = i
		rs.Records = append(rs.Records, rec)
	}
	return rs, err
}

// Merge combines result sets from different shards (or checkpoint loads)
// over the same point enumeration into one set in point order. Duplicate
// digests collapse to a single record — evaluation is deterministic, so any
// copy is the same record.
func Merge(sets ...*ResultSet) *ResultSet {
	if len(sets) == 0 {
		return &ResultSet{}
	}
	byDigest := map[string]Record{}
	for _, s := range sets {
		for _, r := range s.Records {
			byDigest[r.Digest] = r
		}
	}
	out := &ResultSet{Points: sets[0].Points}
	for i, p := range out.Points {
		if rec, ok := byDigest[digestKey(p)]; ok {
			rec.Index = i
			out.Records = append(out.Records, rec)
		}
	}
	sort.SliceStable(out.Records, func(a, b int) bool { return out.Records[a].Index < out.Records[b].Index })
	return out
}
