package dse

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"

	"repro/internal/hw"
)

// This file is the record-line codec and the merge/dedup surface the fleet
// coordinator builds on. Every record line — checkpoint, result cache,
// NDJSON stream, evaluate body, -records dump — is encoded by
// AppendRecordLine and decoded by ParseRecordLine, and re-encoding a parsed
// line gives back its bytes (FuzzParseRecordLine), so records a coordinator
// parses from worker streams and commits keep the merged file
// byte-identical to one a local sweep would write. The seed-scoped digest
// deduper absorbs the overlap re-leased shards inevitably re-deliver.

// AppendRecordLine appends the record line of rec — its JSON encoding and a
// closing newline — to dst and returns the extended buffer.
func AppendRecordLine(dst []byte, rec Record) ([]byte, error) {
	b := bytes.NewBuffer(dst)
	// Encode writes exactly json.Marshal's bytes plus '\n', in one write.
	if err := json.NewEncoder(b).Encode(rec); err != nil {
		return dst, fmt.Errorf("dse: encode record: %w", err)
	}
	return b.Bytes(), nil
}

// WriteRecords writes recs to w as record lines, in order.
func WriteRecords(w *bufio.Writer, recs []Record) error {
	var line []byte
	for _, rec := range recs {
		var err error
		if line, err = AppendRecordLine(line[:0], rec); err != nil {
			return err
		}
		if _, err := w.Write(line); err != nil {
			return err
		}
	}
	return nil
}

// ParseRecordLine decodes one record line into a validated Record. It
// applies exactly the per-line discipline checkpoint loading uses — strict
// JSON (unknown fields reject), self-consistency check, canonical bishop
// spelling — so a stream of lines fed through it recovers the same records
// a checkpoint load of those lines would. Surrounding whitespace, such as
// the closing newline AppendRecordLine writes, is accepted.
func ParseRecordLine(line []byte) (Record, bool) {
	if len(line) == 0 {
		return Record{}, false
	}
	var r Record
	if err := hw.DecodeStrict(line, &r); err != nil {
		return Record{}, false
	}
	if !r.Valid() {
		return Record{}, false
	}
	return r, true
}

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
	if !rec.Valid() || rec.Seed != d.seed || rec.Fidelity != d.fidelity {
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
