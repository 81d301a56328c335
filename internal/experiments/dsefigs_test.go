package experiments

// Conformance of the DSE-backed §6.5 figures: routing Fig. 15/16 through
// the sweep engine must reproduce, cell for cell, what the deleted bespoke
// loops computed with accel.Simulate directly.

import (
	"fmt"
	"testing"

	"repro/internal/accel"
	"repro/internal/bundle"
	"repro/internal/hw"
)

func TestFig15MatchesDirectSimulation(t *testing.T) {
	t.Parallel()
	const seed = 1
	tr := traceFor(3, false, seed)
	fracs := []float64{0.1, 0.25, 0.4, 0.5, 0.6, 0.75, 0.9}
	reps := make([]*hw.Report, len(fracs))
	for i, frac := range fracs {
		opt := accel.DefaultOptions()
		opt.SplitTarget = frac
		reps[i] = accel.Simulate(tr, opt)
	}
	var best float64
	for _, rep := range reps {
		if edp := rep.EDP(); best == 0 || edp < best {
			best = edp
		}
	}

	tbl := Fig15(seed)
	for i, rep := range reps {
		row := tbl.Rows[i]
		if want := f4(rep.LatencyMS()); row[1] != want {
			t.Fatalf("row %d latency %s want %s", i, row[1], want)
		}
		if want := f4(rep.EnergyMJ()); row[2] != want {
			t.Fatalf("row %d energy %s want %s", i, row[2], want)
		}
		if want := f2(rep.EDP() / best); row[3] != want {
			t.Fatalf("row %d EDP %s want %s", i, row[3], want)
		}
	}
}

func TestFig16MatchesDirectSimulation(t *testing.T) {
	t.Parallel()
	const seed = 1
	shapes := []bundle.Shape{
		{BSt: 1, BSn: 2}, {BSt: 2, BSn: 1}, {BSt: 2, BSn: 2}, {BSt: 2, BSn: 4},
		{BSt: 4, BSn: 2}, {BSt: 4, BSn: 4}, {BSt: 2, BSn: 7}, {BSt: 4, BSn: 14},
	}
	tr := traceFor(3, false, seed)
	reps := make([]*hw.Report, len(shapes))
	for i, sh := range shapes {
		opt := accel.DefaultOptions()
		opt.Shape = sh
		theta := paperTheta(3)
		opt.ECP = &bundle.ECPConfig{Shape: sh, ThetaQ: theta, ThetaK: theta}
		reps[i] = accel.Simulate(tr, opt)
	}

	tbl := Fig16(seed)
	for i, rep := range reps {
		row := tbl.Rows[i]
		if want := fmt.Sprint(shapes[i].Volume()); row[2] != want {
			t.Fatalf("row %d volume %s want %s", i, row[2], want)
		}
		if want := f4(rep.LatencyMS()); row[3] != want {
			t.Fatalf("row %d latency %s want %s", i, row[3], want)
		}
		if want := f4(rep.EnergyMJ()); row[4] != want {
			t.Fatalf("row %d energy %s want %s", i, row[4], want)
		}
		if want := f4(rep.AttentionTotal().LatencyMS(rep.Tech)); row[5] != want {
			t.Fatalf("row %d ATN latency %s want %s", i, row[5], want)
		}
	}
}
