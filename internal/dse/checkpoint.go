package dse

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"

	"repro/internal/durable"
)

// CheckpointWriter is the sweep checkpoint: an append-only JSONL record
// store, one Record per line, kept in a durable.Journal. Appends happen
// record-by-record as evaluations complete, so a killed sweep loses at most
// the in-flight points; a torn final line (the process died mid-write) is
// skipped on load and closed off by a newline before the next append — the
// interrupted point simply re-evaluates on resume. The fleet coordinator uses it to
// merge record streams from many workers into one file that is
// indistinguishable from a single-process sweep checkpoint.
type CheckpointWriter struct {
	j    *durable.Journal
	recs []Record
}

// OpenCheckpointWriter loads the existing records of path (if any) and opens
// it for appending, creating it when absent.
func OpenCheckpointWriter(path string) (*CheckpointWriter, error) {
	j, data, err := durable.OpenJournal(path)
	if err != nil {
		return nil, fmt.Errorf("dse: open checkpoint: %w", err)
	}
	return &CheckpointWriter{j: j, recs: parseRecords(data)}, nil
}

// parseRecords decodes JSONL content, skipping blank and malformed lines
// (strictly: unknown fields also reject a line, so records written by a
// different schema version are re-evaluated rather than half-read). A line
// without a backend tag is a bishop record — the pre-backend format and the
// canonical bishop spelling are the same bytes — and a tagged line whose
// options document does not decode against its backend is dropped like any
// other malformed line.
func parseRecords(data []byte) []Record {
	var recs []Record
	for line := range bytes.Lines(data) {
		if r, ok := ParseRecordLine(bytes.TrimRight(line, "\r\n")); ok {
			recs = append(recs, r)
		}
	}
	return recs
}

// Records returns the records recovered at open time.
func (c *CheckpointWriter) Records() []Record { return c.recs }

// Append marshals one record as a JSON line and fsyncs it before
// returning, making the record durable against a process kill. The caller
// serializes Append/AppendLine calls.
func (c *CheckpointWriter) Append(rec Record) error {
	data, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("dse: marshal record: %w", err)
	}
	return c.AppendLine(data)
}

// AppendLine durably appends one checkpoint-format line verbatim (no
// trailing newline in line). The caller is responsible for having validated
// it with ParseRecordLine — appending worker-received bytes unmodified is
// what keeps a fleet-merged checkpoint byte-identical to a local sweep's.
func (c *CheckpointWriter) AppendLine(line []byte) error {
	if err := c.j.Append(line); err != nil {
		return fmt.Errorf("dse: append checkpoint: %w", err)
	}
	return nil
}

// Close closes the underlying file.
func (c *CheckpointWriter) Close() error { return c.j.Close() }

// LoadCheckpoint reads the records of a checkpoint file without opening it
// for writing — the query side (Pareto extraction over a finished sweep,
// merging shard files).
func LoadCheckpoint(path string) ([]Record, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("dse: read checkpoint: %w", err)
	}
	return parseRecords(data), nil
}
