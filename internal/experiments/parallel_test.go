package experiments

import (
	"reflect"
	"runtime"
	"testing"
)

// TestParallelMatchesSequential pins the determinism contract of the
// parallel runner: at a fixed seed, every emitted metric must be identical
// whether the pool has one worker (GOMAXPROCS=1) or eight. The ids cover
// the fan-out shapes that re-simulate on every call — paired heterogeneous
// sims (fig11, sec64) and an options sweep through dse.Sweep (fig15).
// fig12/fig13/summary are deliberately absent: their variant matrix is
// memoized, so a second run would compare the cache against itself (the
// cached grid is a dse.Sweep, whose determinism the dse tests pin).
// This test is deliberately not parallel: it owns GOMAXPROCS while running.
func TestParallelMatchesSequential(t *testing.T) {
	ids := []string{"fig11", "fig15", "sec64"}
	old := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(old)
	seq := map[string]*Table{}
	for _, id := range ids {
		tbl, err := Run(id, true, 1)
		if err != nil {
			t.Fatalf("sequential %s: %v", id, err)
		}
		seq[id] = tbl
	}
	runtime.GOMAXPROCS(8)
	for _, id := range ids {
		tbl, err := Run(id, true, 1)
		if err != nil {
			t.Fatalf("parallel %s: %v", id, err)
		}
		if !reflect.DeepEqual(tbl, seq[id]) {
			t.Fatalf("%s: parallel output differs from sequential:\nseq: %+v\npar: %+v",
				id, seq[id], tbl)
		}
	}
}
