package dse

import "repro/internal/hw"

// This file is the merge/dedup surface the fleet coordinator builds on: an
// exported checkpoint writer that can append verbatim record lines received
// from workers (so the merged file is byte-identical to one a local sweep
// would write), a strict single-line record parser, and a seed-scoped digest
// deduper that absorbs the overlap re-leased shards inevitably re-deliver.

// ParseRecordLine decodes one checkpoint-format line into a validated
// Record. It applies exactly the per-line discipline checkpoint loading
// uses — strict JSON (unknown fields reject), self-consistency check,
// canonical bishop spelling — so a stream of lines fed through it recovers
// the same records a checkpoint load of those lines would.
func ParseRecordLine(line []byte) (Record, bool) {
	if len(line) == 0 {
		return Record{}, false
	}
	var r Record
	if err := hw.DecodeStrict(line, &r); err != nil {
		return Record{}, false
	}
	if !r.valid() {
		return Record{}, false
	}
	return r, true
}

// CheckpointWriter is the exported form of the sweep checkpoint: an
// append-only JSONL record store with the same durability contract (each
// append is fsynced before returning; torn tail lines are tolerated on
// load). The fleet coordinator uses it to merge record streams from many
// workers into one file that is indistinguishable from a single-process
// sweep checkpoint.
type CheckpointWriter struct {
	c *checkpoint
}

// OpenCheckpointWriter loads the existing records of path (if any) and opens
// it for appending, creating it when absent.
func OpenCheckpointWriter(path string) (*CheckpointWriter, error) {
	c, err := openCheckpoint(path)
	if err != nil {
		return nil, err
	}
	return &CheckpointWriter{c: c}, nil
}

// Records returns the records recovered at open time.
func (w *CheckpointWriter) Records() []Record { return w.c.Records() }

// Append marshals and durably appends one record. The caller serializes
// Append/AppendLine calls.
func (w *CheckpointWriter) Append(rec Record) error { return w.c.Append(rec) }

// AppendLine durably appends one checkpoint-format line verbatim (no
// trailing newline in line). The caller is responsible for having validated
// it with ParseRecordLine — appending worker-received bytes unmodified is
// what keeps a fleet-merged checkpoint byte-identical to a local sweep's.
func (w *CheckpointWriter) AppendLine(line []byte) error { return w.c.appendLine(line) }

// Close closes the underlying file.
func (w *CheckpointWriter) Close() error { return w.c.Close() }

// Dedup is a seed- and fidelity-scoped record set keyed by point digest:
// the one adoption rule for records that were not evaluated by the caller —
// checkpoint lines, preloaded cache hits, re-leased shards, replayed worker
// logs. Add accepts each digest once and drops malformed records and
// records from other trace seeds or fidelities (either describes a
// different experiment).
type Dedup struct {
	seed     uint64
	fidelity int
	recs     map[string]Record
}

// NewDedupAt returns a deduper admitting records with the given trace seed
// and fidelity tag (0 or 1 = full fidelity).
func NewDedupAt(seed uint64, fidelity int) *Dedup {
	if fidelity <= 1 {
		fidelity = 0
	}
	return &Dedup{seed: seed, fidelity: fidelity, recs: map[string]Record{}}
}

// Add reports whether rec is fresh — self-consistent (see Record.Valid),
// right seed and fidelity, digest not seen before — and remembers its
// canonical form when it is.
func (d *Dedup) Add(rec Record) bool {
	if !rec.valid() || rec.Seed != d.seed || rec.Fidelity != d.fidelity {
		return false
	}
	if _, ok := d.recs[rec.Digest]; ok {
		return false
	}
	d.recs[rec.Digest] = rec
	return true
}

// Get returns the admitted record for the digest, if any.
func (d *Dedup) Get(digest string) (Record, bool) {
	rec, ok := d.recs[digest]
	return rec, ok
}

// Ordered assembles the admitted records covering the given point
// enumeration, in enumeration order with indices rebound — the same merged
// view Sweep produces. Points without a record are skipped.
func (d *Dedup) Ordered(points []Point) []Record {
	var out []Record
	for i, key := range DigestKeys(points) {
		if rec, ok := d.recs[key]; ok {
			rec.Index = i
			out = append(out, rec)
		}
	}
	return out
}

// DigestKey renders a point digest the way checkpoints and record lines
// store it (%016x) — the key Dedup and the result cache speak. DigestKeys
// renders a whole point set.
func DigestKey(p Point) string { return digestKey(p) }
