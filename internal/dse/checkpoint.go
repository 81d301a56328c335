package dse

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
)

// CheckpointWriter is the sweep checkpoint: an append-only JSONL record
// store, one Record per line. Appends happen record-by-record as
// evaluations complete, so a killed sweep loses at most the in-flight
// points; a torn final line (the process died mid-write) is skipped on load
// and closed off by a newline before the next append — the interrupted
// point simply re-evaluates on resume. The fleet coordinator uses it to
// merge record streams from many workers into one file that is
// indistinguishable from a single-process sweep checkpoint.
type CheckpointWriter struct {
	f    *os.File
	recs []Record
	// torn is set while the file ends in a partial line: the first append
	// starts with a newline, so the torn fragment stays a malformed line of
	// its own instead of swallowing the new record.
	torn bool
}

// OpenCheckpointWriter loads the existing records of path (if any) and opens
// it for appending, creating it when absent.
func OpenCheckpointWriter(path string) (*CheckpointWriter, error) {
	c := &CheckpointWriter{}
	if data, err := os.ReadFile(path); err == nil {
		c.recs = parseRecords(data)
		c.torn = len(data) > 0 && data[len(data)-1] != '\n'
	} else if !os.IsNotExist(err) {
		return nil, fmt.Errorf("dse: read checkpoint: %w", err)
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("dse: open checkpoint: %w", err)
	}
	c.f = f
	return c, nil
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
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		if r, ok := ParseRecordLine(sc.Bytes()); ok {
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
// Over a torn tail the newline that ends the fragment goes out in the same
// write; the file is never truncated.
func (c *CheckpointWriter) AppendLine(line []byte) error {
	buf := make([]byte, 0, len(line)+2)
	if c.torn {
		buf = append(buf, '\n')
	}
	if _, err := c.f.Write(append(append(buf, line...), '\n')); err != nil {
		return fmt.Errorf("dse: append checkpoint: %w", err)
	}
	c.torn = false
	return c.f.Sync()
}

// Close closes the underlying file.
func (c *CheckpointWriter) Close() error { return c.f.Close() }

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
