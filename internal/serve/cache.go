package serve

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/dse"
	"repro/internal/durable"
)

// Cache is a digest-addressed store of evaluation records: one record line
// (dse.AppendRecordLine) per (point digest, trace seed) at
// <dir>/<digest>.s<seed>.json. It is the daemon's O(1) answer to repeated
// evaluations under load — any sweep or single-point evaluation that lands
// on a digest another request already computed is served from disk instead
// of re-simulated — and it persists across daemon restarts.
//
// Publication goes through durable.WriteFile, like tracefile.Store.Save:
// bytes land in a temp file in the same directory, are fsynced, and are
// published with an atomic rename, so under concurrent writers of one key
// the entry is always a complete document (evaluation is deterministic, so
// every competing writer carries the same record and it does not matter
// which wins).
type Cache struct {
	Dir string
}

// PathAt returns where the record for (digest, seed, fidelity) lives.
// Full fidelity (0 or 1) keeps the legacy <digest>.s<seed>.json name, so
// caches populated before the fidelity axis existed keep serving hits;
// low-fidelity entries get a .f<k> infix of their own.
func (c Cache) PathAt(digest string, seed uint64, fidelity int) string {
	if fidelity <= 1 {
		return filepath.Join(c.Dir, fmt.Sprintf("%s.s%d.json", digest, seed))
	}
	return filepath.Join(c.Dir, fmt.Sprintf("%s.s%d.f%d.json", digest, seed, fidelity))
}

// LoadAt returns the cached record for (digest, seed, fidelity). A miss —
// absent, unreadable, corrupt, or mislabeled entry — reports ok=false;
// corrupt entries are never fatal, the point simply re-evaluates. The
// fidelity check matters even though the path already encodes it: a renamed
// or hand-placed entry must not satisfy an evaluation at a different
// fidelity.
func (c Cache) LoadAt(digest string, seed uint64, fidelity int) (dse.Record, bool) {
	if fidelity <= 1 {
		fidelity = 0
	}
	data, err := os.ReadFile(c.PathAt(digest, seed, fidelity))
	if err != nil {
		return dse.Record{}, false
	}
	r, ok := dse.ParseRecordLine(data)
	if !ok || r.Digest != digest || r.Seed != seed || r.Fidelity != fidelity {
		return dse.Record{}, false
	}
	return r, true
}

// Save publishes rec under its own digest, seed, and fidelity, atomically.
func (c Cache) Save(rec dse.Record) error {
	if err := os.MkdirAll(c.Dir, 0o755); err != nil {
		return fmt.Errorf("serve: cache: %w", err)
	}
	if err := durable.WriteFile(c.PathAt(rec.Digest, rec.Seed, rec.Fidelity), func(w *bufio.Writer) error {
		return dse.WriteRecords(w, []dse.Record{rec})
	}); err != nil {
		return fmt.Errorf("serve: cache: save %s: %w", rec.Digest, err)
	}
	return nil
}
