package serve

import (
	"bytes"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"
	"sync"

	"repro/internal/dse"
	"repro/internal/durable"
)

// Cache is a digest-addressed store of evaluation records, one per (point
// digest, trace seed, fidelity). It is the daemon's O(1) answer to repeated
// evaluations under load — any sweep or single-point evaluation that lands
// on a digest another request already computed is served from disk instead
// of re-simulated — and it persists across daemon restarts.
//
// The records live in one append-only log, <dir>/records.log. Save appends
// one line, "<digest> <seed> <fidelity> <record line>", with
// durable.AppendFile: no new file and no fsync. (A file per record cost
// more than a memo-warm evaluation, almost all of it in allocating the
// file's inode, and that cost follows the filesystem's state, not the
// program's.) Each Cache indexes the log in memory, key → place of the
// key's last line, a map entry of 40 bytes per record (no pointers for the
// collector to scan) for as long as the Cache lives. It reads the log once, then, whenever a lookup misses, only the
// bytes appended since; so Caches in one process or several can share a
// directory and serve each other's records.
//
// Nothing unsynced is trusted. A lookup strictly parses the record and
// checks its digest, seed and fidelity, and a line that fails — torn or lost
// by a crash of the machine, or damaged — is a miss: the point re-evaluates
// and its new line takes the key over. Appends never interleave, and each
// starts with a newline, so a torn tail cannot swallow the next record.
// Evaluation is deterministic, so when two writers append one key it does
// not matter whose line the index keeps.
type Cache struct {
	Dir string

	mu    sync.Mutex
	index map[cacheKey]logSpan // the last line of each key in the first next bytes of the log
	next  int64
	buf   []byte // scan's read buffer
}

// cacheKey identifies a cache entry. Full fidelity is 0: a lookup at
// fidelity 1 is the same entry.
type cacheKey struct {
	digest, seed uint64
	fidelity     int
}

func makeKey(digest string, seed uint64, fidelity int) (cacheKey, bool) {
	if len(digest) != 16 {
		return cacheKey{}, false
	}
	d, err := strconv.ParseUint(digest, 16, 64)
	if err != nil {
		return cacheKey{}, false
	}
	return cacheKey{d, seed, fullFidelity(fidelity)}, true
}

func fullFidelity(fidelity int) int {
	if fidelity <= 1 {
		return 0
	}
	return fidelity
}

// logSpan is where a record line (without its newline) sits in the log.
type logSpan struct {
	off int64
	n   int
}

// logName is the name of the cache's log in its directory.
const logName = "records.log"

func (c *Cache) logPath() string { return filepath.Join(c.Dir, logName) }

// LoadAt returns the cached record for (digest, seed, fidelity). A miss —
// absent, corrupt, or mislabeled entry — reports ok=false; corrupt entries
// are never fatal, the point simply re-evaluates. The fidelity check
// matters even though the key already carries it: a hand-written line must
// not satisfy an evaluation at a different fidelity.
func (c *Cache) LoadAt(digest string, seed uint64, fidelity int) (dse.Record, bool) {
	k, ok := makeKey(digest, seed, fidelity)
	if !ok {
		return dse.Record{}, false
	}
	// The indexed line first; when there is none, or it does not hold the
	// record, the lines appended since may.
	var tried logSpan
	for _, catchUp := range []bool{false, true} {
		c.mu.Lock()
		if catchUp {
			c.scan()
		}
		sp, ok := c.index[k]
		c.mu.Unlock()
		if !ok || sp == tried {
			continue
		}
		tried = sp
		if r, ok := c.read(sp); ok && r.Digest == digest && r.Seed == seed && r.Fidelity == k.fidelity {
			return r, true
		}
	}
	return dse.Record{}, false
}

// Save appends rec to the log under its own digest, seed, and fidelity.
func (c *Cache) Save(rec dse.Record) error {
	if _, ok := makeKey(rec.Digest, rec.Seed, rec.Fidelity); !ok {
		return fmt.Errorf("serve: cache: malformed digest %q", rec.Digest)
	}
	line := fmt.Appendf(nil, "\n%s %d %d ", rec.Digest, rec.Seed, fullFidelity(rec.Fidelity))
	line, err := dse.AppendRecordLine(line, rec)
	if err == nil {
		err = durable.AppendFile(c.logPath(), line)
	}
	if errors.Is(err, fs.ErrNotExist) {
		// The first save into a new directory.
		if err = os.MkdirAll(c.Dir, 0o755); err == nil {
			err = durable.AppendFile(c.logPath(), line)
		}
	}
	if err != nil {
		return fmt.Errorf("serve: cache: save %s: %w", rec.Digest, err)
	}
	return nil
}

// read returns the record line at sp, parsed.
func (c *Cache) read(sp logSpan) (dse.Record, bool) {
	f, err := os.Open(c.logPath())
	if err != nil {
		return dse.Record{}, false
	}
	defer f.Close()
	line := make([]byte, sp.n)
	if _, err := f.ReadAt(line, sp.off); err != nil {
		return dse.Record{}, false
	}
	return dse.ParseRecordLine(line)
}

// scanChunk is the size of scan's first read buffer.
const scanChunk = 64 << 10

// scan indexes the log's complete lines past c.next. A partial last line
// may still be being written; it is left for a later scan. c.mu is held.
func (c *Cache) scan() {
	f, err := os.Open(c.logPath())
	if err != nil {
		return
	}
	defer f.Close()
	if c.index == nil {
		c.index = make(map[cacheKey]logSpan)
		c.buf = make([]byte, scanChunk)
	}
	for {
		n, err := f.ReadAt(c.buf, c.next)
		used := 0
		for {
			i := bytes.IndexByte(c.buf[used:n], '\n')
			if i < 0 {
				break
			}
			c.indexLine(c.buf[used:used+i], c.next+int64(used))
			used += i + 1
		}
		c.next += int64(used)
		switch {
		case n == len(c.buf) && used == 0:
			c.buf = make([]byte, 2*len(c.buf)) // a line longer than the buffer
		case err != nil || n < len(c.buf):
			return
		}
	}
}

// indexLine records the line at off, "<digest> <seed> <fidelity> <record>",
// as its key's latest; blank and malformed lines are skipped.
func (c *Cache) indexLine(line []byte, off int64) {
	var f [3][]byte
	rest := line
	for i := range f {
		var ok bool
		if f[i], rest, ok = bytes.Cut(rest, []byte{' '}); !ok {
			return
		}
	}
	seed, err := strconv.ParseUint(string(f[1]), 10, 64)
	if err != nil {
		return
	}
	fid, err := strconv.Atoi(string(f[2]))
	if err != nil {
		return
	}
	k, ok := makeKey(string(f[0]), seed, fid)
	if !ok {
		return
	}
	c.index[k] = logSpan{off: off + int64(len(line)-len(rest)), n: len(rest)}
}
