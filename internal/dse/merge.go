package dse

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"

	"repro/internal/hw"
)

// This file is the record-line codec. Every record line — checkpoint,
// result cache, NDJSON stream, evaluate body, -records dump — is encoded by
// AppendRecordLine and decoded by ParseRecordLine, and re-encoding a parsed
// line gives back its bytes (FuzzParseRecordLine), so records a fleet
// coordinator parses from worker streams and commits through its Plan keep
// the merged file byte-identical to one a local sweep would write. The
// plan fills each position once, which absorbs the overlap re-leased shards
// re-deliver.

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
