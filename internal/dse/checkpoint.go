package dse

import (
	"bytes"
	"fmt"
	"os"
	"sync"

	"repro/internal/durable"
)

// CheckpointWriter is the sweep checkpoint: an append-only JSONL record
// store, one Record per line, kept in a durable.Journal. A Committer appends
// each run of records that is ready in unit order with one write and one
// fsync, so a killed sweep loses only records that were not yet durable; a
// torn final line (the process died mid-write) is skipped on load and closed
// off by a newline before the next append — the interrupted points simply
// re-evaluate on resume. The fleet coordinator commits the records it
// merges from many workers the same way, so its file is indistinguishable
// from a single-process sweep checkpoint.
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

// Committer commits the fresh records of one run in plan order — the run's
// to-do units, in unit order — whatever order they arrive in, so the
// checkpoint does not depend on how many evaluators or workers produced it.
// A record that arrives ahead of the first uncommitted position waits in a
// reorder buffer. The caller that fills that position commits the whole
// ready run with one checkpoint write and one fsync, then hands the run to
// onRecord in order, repeating while more became ready. It holds no lock
// meanwhile, so the other callers keep evaluating. onRecord thus sees only
// durable records, one call at a time, in plan order.
//
// If every caller returns, the committed prefix has no gaps (sched.Map
// starts items in index order and waits for each one it started). After a
// failed append nothing more is committed and every later Commit returns
// the error.
type Committer struct {
	ckpt     *CheckpointWriter // nil: no checkpoint
	onRecord func(Record)

	mu   sync.Mutex
	recs []Record // by plan position; Digest is "" until the record arrives
	next int      // recs[:next] are committed
	err  error    // the failed append, if any
	// block is the encode buffer; only the committing caller touches it.
	block []byte
}

// NewCommitter returns a committer for a plan of n positions that appends
// to ckpt (nil: none) and hands every committed record to onRecord (nil:
// none).
func NewCommitter(ckpt *CheckpointWriter, n int, onRecord func(Record)) *Committer {
	return &Committer{ckpt: ckpt, onRecord: onRecord, recs: make([]Record, n)}
}

// Commit files rec, which must carry its digest, at plan position k; each
// position is filled once. When k is the first uncommitted position the
// caller commits every ready record before returning (see Committer).
func (c *Committer) Commit(k int, rec Record) error {
	c.mu.Lock()
	c.recs[k] = rec
	// Only the caller that fills recs[next] enters the loop: next stays put
	// until that caller has committed the run and handed it to onRecord.
	for k == c.next && k < len(c.recs) && c.recs[k].Digest != "" {
		hi := k + 1
		for hi < len(c.recs) && c.recs[hi].Digest != "" {
			hi++
		}
		c.mu.Unlock()
		err := c.publish(c.recs[k:hi])
		c.mu.Lock()
		if err != nil {
			c.err = err
			break
		}
		c.next, k = hi, hi
	}
	err := c.err
	c.mu.Unlock()
	return err
}

// publish appends run to the checkpoint and then hands it to onRecord.
func (c *Committer) publish(run []Record) error {
	if c.ckpt != nil {
		c.block = c.block[:0]
		for _, rec := range run {
			var err error
			if c.block, err = AppendRecordLine(c.block, rec); err != nil {
				return err
			}
		}
		if err := c.ckpt.appendBlock(c.block); err != nil {
			return err
		}
	}
	if c.onRecord != nil {
		for _, rec := range run {
			c.onRecord(rec)
		}
	}
	return nil
}

// Committed returns the committed records, in plan order.
func (c *Committer) Committed() []Record {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.recs[:c.next]
}

// Err returns the error of the failed append, if any.
func (c *Committer) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.err
}
