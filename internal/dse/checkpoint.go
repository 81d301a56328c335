package dse

import (
	"bytes"
	"fmt"
	"os"

	"repro/internal/durable"
)

// CheckpointWriter is the sweep checkpoint: an append-only JSONL record
// store, one Record per line, kept in a durable.Journal. A sweep's Plan
// opens it, adopts its records, and appends each run of fresh records that
// is ready in unit order with one write and one fsync, so a killed sweep
// loses only records that were not yet durable; a torn final line (the
// process died mid-write) is skipped on load and closed off by a newline
// before the next append — the interrupted points simply re-evaluate on
// resume. Local sweeps, the serving layer and the fleet coordinator all
// write through a Plan, so a fleet-merged file is indistinguishable from a
// single-process sweep checkpoint.
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

// Append encodes one record line and fsyncs it before returning, making
// the record durable against a process kill. The caller serializes appends.
func (c *CheckpointWriter) Append(rec Record) error {
	line, err := AppendRecordLine(nil, rec)
	if err != nil {
		return err
	}
	return c.appendBlock(line)
}

// appendBlock durably appends a block of record lines.
func (c *CheckpointWriter) appendBlock(block []byte) error {
	if err := c.j.Append(block); err != nil {
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
