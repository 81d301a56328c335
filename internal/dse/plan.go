package dse

import (
	"context"
	"sync"

	"repro/internal/sched"
)

// Plan is one execution of a sweep over a point set; Sweep, the serving
// layer and the fleet coordinator each run through one. It adopts the
// records already held, lists the units still missing (Todo), commits fresh
// records in unit order and assembles the one ResultSet.
//
// One rule adopts checkpoint lines and Adopt's records: a record is adopted
// when it is self-consistent (Record.Valid), carries the sweep's seed and
// fidelity (otherwise it describes another experiment), and no record with
// its digest was adopted before (first copy wins). Digests key adoption, so
// a checkpoint survives re-ordering of the spec.
//
// Commit takes records in any order from any number of goroutines. A record
// ahead of the first uncommitted position waits in a reorder buffer. The
// caller that fills that position appends the whole ready run with one
// write and one fsync, then hands it to Config.OnRecord, holding no lock, so
// the other callers keep evaluating and OnRecord sees only durable records,
// one call at a time, in unit order. If every caller returns, the committed
// prefix has no gaps (sched.Map starts items in index order and waits for
// each one it started). After a failed append nothing more is committed and
// every later Commit returns the error.
type Plan struct {
	cfg    Config
	points []Point
	keys   []string          // DigestKey of every point
	ckpt   *CheckpointWriter // nil: no checkpoint
	held   map[string]Record // adopted records by digest
	todo   []int             // units without an adopted record, in unit order
	pos    map[string]int    // digest → position in todo

	// evaluate produces the record of point i; tests replace it to
	// interleave evaluations with cancellation.
	evaluate func(i int) Record

	mu   sync.Mutex
	recs []Record // fresh records by position; Digest is "" until filled
	next int      // recs[:next] are committed
	err  error    // the failed append, if any
	// block is the encode buffer; only the committing caller touches it.
	block []byte
}

// OpenPlan opens cfg.Checkpoint (when set), adopts its records and plans
// the units of points that still need a record. Close releases the
// checkpoint.
func OpenPlan(points []Point, cfg Config) (*Plan, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	keys := DigestKeys(points)
	p := &Plan{cfg: cfg, points: points, keys: keys, held: map[string]Record{}, todo: cfg.units(keys)}
	p.evaluate = func(i int) Record { return evaluate(p.points[i], p.keys[i], cfg.Seed, cfg.Fidelity) }
	var recs []Record
	if cfg.Checkpoint != "" {
		ckpt, err := OpenCheckpointWriter(cfg.Checkpoint)
		if err != nil {
			return nil, err
		}
		p.ckpt, recs = ckpt, ckpt.Records()
	}
	p.Adopt(recs)
	return p, nil
}

// Adopt adopts records that are already durable elsewhere — result cache
// hits — under the plan's rule and returns how many it took. Their units
// leave Todo. They are not appended to the checkpoint, not handed to
// OnRecord and not counted as evaluated. Call it before the first Commit:
// it renumbers the positions of Todo.
func (p *Plan) Adopt(recs []Record) int {
	n := 0
	for _, rec := range recs {
		if _, dup := p.held[rec.Digest]; !dup && rec.Valid() && rec.Seed == p.cfg.Seed && rec.Fidelity == p.cfg.Fidelity {
			p.held[rec.Digest] = rec
			n++
		}
	}
	todo := p.todo[:0]
	p.pos = make(map[string]int, len(p.todo))
	for _, i := range p.todo {
		if _, ok := p.held[p.keys[i]]; !ok {
			p.pos[p.keys[i]] = len(todo)
			todo = append(todo, i)
		}
	}
	p.todo, p.recs = todo, make([]Record, len(todo))
	return n
}

// Todo returns the units that still need a record, in unit order: the
// point indices whose records Commit files at positions 0, 1, ….
func (p *Plan) Todo() []int { return p.todo }

// Key returns the digest key (DigestKey) of point i.
func (p *Plan) Key(i int) string { return p.keys[i] }

// ShardUnits returns the units shard s of n owns — Config.Units of the
// plan's points with Shard and Shards set to s and n — from the digest keys
// the plan holds.
func (p *Plan) ShardUnits(s, n int) []int {
	c := p.cfg
	c.Shard, c.Shards = s, n
	return c.units(p.keys)
}

// Position returns the position in Todo of the unit with the given digest.
func (p *Plan) Position(digest string) (int, bool) {
	k, ok := p.pos[digest]
	return k, ok
}

// Has reports whether point i has a record: adopted, or filed by Commit
// (committed or still waiting for an earlier position).
func (p *Plan) Has(i int) bool {
	if _, ok := p.held[p.keys[i]]; ok {
		return true
	}
	k, ok := p.pos[p.keys[i]]
	p.mu.Lock()
	defer p.mu.Unlock()
	return ok && p.recs[k].Digest != ""
}

// Run evaluates the point of every position in Todo, Jobs at a time, and
// commits each record. Each evaluation reuses the digest key the plan holds
// for its unit. On cancellation it waits for the evaluations in flight,
// commits them, and returns the error.
func (p *Plan) Run(ctx context.Context) error {
	return sched.Map(ctx, len(p.todo), p.cfg.Jobs, func(k int) error {
		_, err := p.Commit(k, p.evaluate(p.todo[k]))
		return err
	})
}

// Commit files rec, the record of unit Todo()[k], at position k and
// reports whether it was fresh. A position is filled once: a record for a
// filled position — committed or still waiting — is dropped, as is a record
// of another seed or fidelity. When k is the first uncommitted position the
// caller commits every ready record before returning (see Plan). The error
// is the checkpoint's failed append, if any.
func (p *Plan) Commit(k int, rec Record) (bool, error) {
	if rec.Seed != p.cfg.Seed || rec.Fidelity != p.cfg.Fidelity {
		return false, p.Err()
	}
	rec.Index = p.todo[k]
	p.mu.Lock()
	if p.recs[k].Digest != "" {
		err := p.err
		p.mu.Unlock()
		return false, err
	}
	p.recs[k] = rec
	// Only the caller that fills recs[next] enters the loop: next stays put
	// until that caller has committed the run and handed it to OnRecord.
	for k == p.next && k < len(p.recs) && p.recs[k].Digest != "" {
		hi := k + 1
		for hi < len(p.recs) && p.recs[hi].Digest != "" {
			hi++
		}
		p.mu.Unlock()
		err := p.publish(p.recs[k:hi])
		p.mu.Lock()
		if err != nil {
			p.err = err
			break
		}
		p.next, k = hi, hi
	}
	err := p.err
	p.mu.Unlock()
	return true, err
}

// publish appends run to the checkpoint and then hands it to OnRecord.
func (p *Plan) publish(run []Record) error {
	if p.ckpt != nil {
		p.block = p.block[:0]
		for _, rec := range run {
			var err error
			if p.block, err = AppendRecordLine(p.block, rec); err != nil {
				return err
			}
		}
		if err := p.ckpt.appendBlock(p.block); err != nil {
			return err
		}
	}
	if p.cfg.OnRecord != nil {
		for _, rec := range run {
			p.cfg.OnRecord(rec)
		}
	}
	return nil
}

// Err returns the error of the failed append, if any.
func (p *Plan) Err() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.err
}

// Result assembles the merged result set: one record per occurrence of
// every selected point that has an adopted or committed record (this
// shard's units, or another shard's found in a shared checkpoint), in
// enumeration order, with Evaluated the number of committed fresh records.
// Call it once the run is over.
func (p *Plan) Result() *ResultSet {
	p.mu.Lock()
	fresh := p.recs[:p.next]
	p.mu.Unlock()
	for _, rec := range fresh {
		p.held[rec.Digest] = rec // a fresh digest was never adopted: Todo skips them
	}
	rs := &ResultSet{Points: p.points, Evaluated: len(fresh)}
	sel := digestSet(p.cfg.Select)
	for i, key := range p.keys {
		if rec, ok := p.held[key]; ok && (sel == nil || sel[key]) {
			rec.Index = i
			rs.Records = append(rs.Records, rec)
		}
	}
	return rs
}

// Close closes the checkpoint.
func (p *Plan) Close() error {
	if p.ckpt == nil {
		return nil
	}
	return p.ckpt.Close()
}
