package dse

import (
	"context"
	"encoding/json"
	"fmt"
	"slices"
	"sort"

	"repro/internal/hw"
)

// This file is the successive-halving / multi-fidelity search driver. A
// SearchSpec declares fidelity rungs as trace-scale divisors (e.g. {8, 4, 1}
// = evaluate everything on a 1/8-volume proxy trace, the best half of that
// on a 1/4 trace, and the survivors at full fidelity); each rung is an
// ordinary sweep — the rung's SweepSpec carries the fidelity and the
// survivor Select set — so checkpoints, the result cache, shard
// partitioning, and fleet execution all work unchanged. Promotion between
// rungs is a pure function of the rung's record set (objective ranking,
// ties broken by point digest), so re-running a spec replays the identical
// rung sequence and a killed search resumes from its checkpoint with zero
// re-evaluation.

// The search objectives. Scalar objectives rank candidates by one headline
// metric; ObjectivePareto ranks by Pareto-frontier peeling depth over
// latency × energy (rank 0 = on the frontier, rank 1 = on the frontier once
// rank 0 is removed, …).
const (
	ObjectiveLatency = "latency"
	ObjectiveEnergy  = "energy"
	ObjectiveEDP     = "edp"
	ObjectivePareto  = "pareto"
)

// SearchSpec is the canonical, serializable description of one
// successive-halving search, SweepSpec's sibling: the declarative space and
// enumeration mode, the fidelity ladder, the promotion rule, and the
// execution attachments. Like SweepSpec it has a strict JSON codec and a
// stable digest, so a search can be saved, replayed, and submitted to the
// daemon idempotently.
type SearchSpec struct {
	Space Space `json:"space"`

	// Random > 0 draws that many seeded-random points (Space.Sample) instead
	// of enumerating the full grid, exactly as in SweepSpec.
	Random int `json:"random,omitempty"`

	// Seed is the trace seed shared by every evaluation at every fidelity,
	// and the random-search seed when Random is set. Zero means 1.
	Seed uint64 `json:"seed,omitempty"`

	// Rungs is the fidelity ladder: strictly decreasing trace-scale
	// divisors ending at 1 (full fidelity). Empty means {8, 4, 1}.
	Rungs []int `json:"rungs,omitempty"`

	// Eta is the halving ratio: each promotion keeps ~1/Eta of the rung's
	// candidates. Zero means 2.
	Eta int `json:"eta,omitempty"`

	// Objective selects the promotion ranking: "latency", "energy", "edp"
	// (the default), or "pareto".
	Objective string `json:"objective,omitempty"`

	// MinSurvivors floors every promotion, so a deep ladder cannot starve
	// the final rung. Zero means 1.
	MinSurvivors int `json:"min_survivors,omitempty"`

	// Execution attachments, excluded from the digest exactly as in
	// SweepSpec. All rungs share one Checkpoint file: records are
	// fidelity-tagged, so each rung adopts only its own lines.
	Checkpoint string `json:"checkpoint,omitempty"`
	TraceDir   string `json:"trace_dir,omitempty"`
	Jobs       int    `json:"jobs,omitempty"`
}

// Normalized resolves the zero spellings: Seed 0 → 1, empty Rungs →
// {8, 4, 1}, Eta ≤ 0 → 2, empty Objective → "edp", MinSurvivors ≤ 0 → 1.
func (s SearchSpec) Normalized() SearchSpec {
	if s.Seed == 0 {
		s.Seed = 1
	}
	if len(s.Rungs) == 0 {
		s.Rungs = []int{8, 4, 1}
	}
	if s.Eta <= 0 {
		s.Eta = 2
	}
	if s.Objective == "" {
		s.Objective = ObjectiveEDP
	}
	if s.MinSurvivors <= 0 {
		s.MinSurvivors = 1
	}
	return s
}

// Validate reports an invalid search document — bad space axes, a malformed
// fidelity ladder, an Eta that would not shrink anything, or an unknown
// objective — before any rung burns simulation time on it.
func (s SearchSpec) Validate() error {
	if err := s.Space.Validate(); err != nil {
		return err
	}
	if s.Random < 0 {
		return fmt.Errorf("dse: negative random sample count %d", s.Random)
	}
	if s.Eta == 1 || s.Eta < 0 {
		return fmt.Errorf("dse: halving ratio eta %d (want 0 for the default, or >= 2)", s.Eta)
	}
	if s.MinSurvivors < 0 {
		return fmt.Errorf("dse: negative min_survivors %d", s.MinSurvivors)
	}
	n := s.Normalized()
	for i, r := range n.Rungs {
		if r < 1 {
			return fmt.Errorf("dse: rung %d has trace-scale divisor %d (want >= 1)", i, r)
		}
		if i > 0 && r >= n.Rungs[i-1] {
			return fmt.Errorf("dse: rungs %v not strictly decreasing", n.Rungs)
		}
	}
	if last := n.Rungs[len(n.Rungs)-1]; last != 1 {
		return fmt.Errorf("dse: last rung has divisor %d, want 1 (searches must end at full fidelity)", last)
	}
	switch n.Objective {
	case ObjectiveLatency, ObjectiveEnergy, ObjectiveEDP, ObjectivePareto:
	default:
		return fmt.Errorf("dse: unknown objective %q (want latency, energy, edp, or pareto)", s.Objective)
	}
	return nil
}

// Points enumerates the candidate set exactly as the equivalent SweepSpec
// would: the full grid, or the seeded sample when Random is set.
func (s SearchSpec) Points() []Point {
	n := s.Normalized()
	if n.Random > 0 {
		return n.Space.Sample(n.Random, n.Seed)
	}
	return n.Space.Grid()
}

// RungSpec builds the SweepSpec for rung i of the ladder, restricted to the
// given survivor digests (nil on the first rung = every candidate). The
// final rung's spec has no fidelity tag, so its records — and, for an
// unrestricted select set, its bytes — are exactly a plain sweep's.
func (s SearchSpec) RungSpec(i int, survivors []string) SweepSpec {
	n := s.Normalized()
	return SweepSpec{
		Space: n.Space, Random: n.Random, Seed: n.Seed,
		Fidelity: n.Rungs[i], Select: survivors,
		Checkpoint: n.Checkpoint, TraceDir: n.TraceDir, Jobs: n.Jobs,
	}.Normalized()
}

// Digest fingerprints the result identity of the search, following the
// SweepSpec conventions exactly: FNV-1a over the canonical JSON of the
// normalized spec with the execution attachments (Checkpoint, TraceDir,
// Jobs) cleared. The daemon keys search jobs on it.
func (s SearchSpec) Digest() uint64 {
	c := s.Normalized()
	c.Space = c.Space.normalized()
	c.Checkpoint, c.TraceDir, c.Jobs = "", "", 0
	return hw.DigestJSON(c)
}

// ID renders the spec digest the way the daemon names jobs: %016x.
func (s SearchSpec) ID() string { return fmt.Sprintf("%016x", s.Digest()) }

// EncodeSearchSpec serializes a validated search spec as indented JSON
// (trailing newline), the on-disk and on-the-wire format.
func EncodeSearchSpec(s SearchSpec) ([]byte, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	data, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("dse: encode SearchSpec: %w", err)
	}
	return append(data, '\n'), nil
}

// DecodeSearchSpec parses and validates a search document, rejecting
// unknown fields anywhere in it and trailing data.
func DecodeSearchSpec(data []byte) (SearchSpec, error) {
	var s SearchSpec
	if err := hw.DecodeStrict(data, &s); err != nil {
		return SearchSpec{}, fmt.Errorf("dse: decode SearchSpec: %w", err)
	}
	if err := s.Validate(); err != nil {
		return SearchSpec{}, err
	}
	return s, nil
}

// RungRunner executes one rung's sweep spec and returns its result set.
// dse.Search drives every rung through one runner, which is how the serving
// layer (result cache, record streaming) and the fleet coordinator plug in
// without this package importing either: they wrap serve.Run / fleet.Run.
type RungRunner func(ctx context.Context, spec SweepSpec) (*ResultSet, error)

// RungSummary reports one completed rung.
type RungSummary struct {
	Fidelity   int `json:"fidelity"`   // trace-scale divisor (1 = full)
	Candidates int `json:"candidates"` // distinct points entering the rung
	Evaluated  int `json:"evaluated"`  // fresh simulations this run (0 on a pure resume)
	Survivors  int `json:"survivors"`  // points promoted out of the rung
}

// SearchResult is the outcome of a search: the per-rung progression, the
// surviving point digests (sorted), and the final rung's full-fidelity
// result set, whose records are byte-identical to a plain grid sweep's
// records for the same points.
type SearchResult struct {
	Rungs     []RungSummary `json:"rungs"`
	Survivors []string      `json:"survivors"`
	Evaluated int           `json:"evaluated"` // total fresh simulations across all rungs, all fidelities
	Final     *ResultSet    `json:"-"`
}

// Search runs the successive-halving ladder: rung by rung it sweeps the
// surviving candidates at the rung's fidelity through run (nil = a plain
// local dse.Sweep), ranks the records under the spec's objective, and
// promotes the best ~1/Eta (ties broken by point digest, floored by
// MinSurvivors) to the next rung. Every step is deterministic given the
// spec, and all rung state lives in the (fidelity-tagged) checkpoint — so
// a search killed between or within rungs re-runs cheaply: completed
// evaluations are adopted from the checkpoint, promotion is recomputed from
// identical records, and the rung sequence replays exactly.
//
// On an incomplete rung (cancellation, or a runner that could not cover
// every candidate) Search returns the summaries so far alongside the error.
func Search(ctx context.Context, spec SearchSpec, run RungRunner) (*SearchResult, error) {
	spec = spec.Normalized()
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if run == nil {
		run = func(ctx context.Context, sw SweepSpec) (*ResultSet, error) {
			return Sweep(ctx, sw.Points(), sw.Config())
		}
	}

	// The candidates are the units of the unrestricted sweep: distinct
	// digests in enumeration order.
	keys := DigestKeys(spec.Points())
	var cands []string
	for _, i := range (Config{}).units(keys) {
		cands = append(cands, keys[i])
	}

	res := &SearchResult{}
	var survivors []string // nil on the first rung: the whole candidate set
	for i := range spec.Rungs {
		rung := spec.RungSpec(i, survivors)
		rs, err := run(ctx, rung)
		if rs != nil {
			res.Evaluated += rs.Evaluated
		}
		sum := RungSummary{Fidelity: spec.Rungs[i], Candidates: len(cands)}
		if rs != nil {
			sum.Evaluated = rs.Evaluated
		}
		if err != nil {
			res.Rungs = append(res.Rungs, sum)
			return res, err
		}
		recs, err := rungRecords(rs, cands)
		if err != nil {
			res.Rungs = append(res.Rungs, sum)
			return res, err
		}
		if last := i == len(spec.Rungs)-1; last {
			sum.Survivors = len(cands)
			res.Rungs = append(res.Rungs, sum)
			res.Survivors = append([]string(nil), cands...)
			slices.Sort(res.Survivors)
			res.Final = rs
			return res, nil
		}
		survivors = promote(recs, keepCount(len(cands), spec.Eta, spec.MinSurvivors), spec.Objective)
		sum.Survivors = len(survivors)
		res.Rungs = append(res.Rungs, sum)
		cands = survivors
	}
	return res, nil // unreachable: Validate guarantees a final rung
}

// rungRecords collects one record per candidate digest from a completed
// rung, erroring on any gap (a cancelled or shard-partial rung cannot
// promote — promotion from partial data would be non-deterministic).
func rungRecords(rs *ResultSet, cands []string) ([]Record, error) {
	byDigest := make(map[string]Record, len(rs.Records))
	for _, r := range rs.Records {
		byDigest[r.Digest] = r
	}
	recs := make([]Record, 0, len(cands))
	for _, d := range cands {
		rec, ok := byDigest[d]
		if !ok {
			return nil, fmt.Errorf("dse: rung incomplete: no record for candidate %s", d)
		}
		recs = append(recs, rec)
	}
	return recs, nil
}

// keepCount sizes a promotion: n/eta, floored by min and 1, capped at n.
func keepCount(n, eta, min int) int {
	keep := n / eta
	if keep < min {
		keep = min
	}
	if keep < 1 {
		keep = 1
	}
	if keep > n {
		keep = n
	}
	return keep
}

// promote ranks the rung's records under the objective and returns the
// digests of the best keep candidates, sorted lexicographically (the
// canonical Select spelling). All ranking ties break by digest, so the
// survivor set is a pure function of (records, keep, objective).
func promote(recs []Record, keep int, objective string) []string {
	ranked := append([]Record(nil), recs...)
	if objective == ObjectivePareto {
		depth := paretoDepths(ranked)
		sort.Slice(ranked, func(a, b int) bool {
			da, db := depth[ranked[a].Digest], depth[ranked[b].Digest]
			if da != db {
				return da < db
			}
			return ranked[a].Digest < ranked[b].Digest
		})
	} else {
		value := objectiveValue(objective)
		sort.Slice(ranked, func(a, b int) bool {
			va, vb := value(ranked[a]), value(ranked[b])
			if va != vb {
				return va < vb
			}
			return ranked[a].Digest < ranked[b].Digest
		})
	}
	out := make([]string, keep)
	for i := range out {
		out[i] = ranked[i].Digest
	}
	slices.Sort(out)
	return out
}

// objectiveValue maps a scalar objective name to its record metric.
func objectiveValue(objective string) func(Record) float64 {
	switch objective {
	case ObjectiveLatency:
		return Latency.Value
	case ObjectiveEnergy:
		return Energy.Value
	default:
		return EDP.Value
	}
}

// paretoDepths assigns every record its frontier-peeling depth over
// latency × energy: depth 0 is the Pareto frontier, depth 1 the frontier of
// what remains after removing depth 0, and so on.
func paretoDepths(recs []Record) map[string]int {
	depth := map[string]int{}
	remaining := append([]Record(nil), recs...)
	for d := 0; len(remaining) > 0; d++ {
		front := Frontier(remaining)
		onFront := make(map[string]bool, len(front))
		for _, f := range front {
			depth[f.Digest] = d
			onFront[f.Digest] = true
		}
		var next []Record
		for _, r := range remaining {
			if !onFront[r.Digest] {
				next = append(next, r)
			}
		}
		remaining = next
	}
	return depth
}
