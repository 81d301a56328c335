package transformer

import (
	"testing"

	"repro/internal/bundle"
)

// TestStatsRejectsInvalidShape pins that an invalid bundle shape panics
// before the memo holds an entry for it, so no half-built entry is left for
// a later walk to read.
func TestStatsRejectsInvalidShape(t *testing.T) {
	tr := &Trace{}
	for _, sh := range []bundle.Shape{{}, {BSt: -1, BSn: 2}, {BSt: 4, BSn: 0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%+v: Stats did not panic", sh)
				}
			}()
			tr.Stats(sh)
		}()
	}
	if len(tr.stats.m) != 0 {
		t.Fatalf("invalid shapes left %d memo entries", len(tr.stats.m))
	}
}
