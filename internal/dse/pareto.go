package dse

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
)

// Objective is one axis of a Pareto extraction; smaller is better.
type Objective struct {
	Name  string
	Value func(Record) float64
}

// The three headline objectives of the evaluation.
var (
	Latency = Objective{Name: "latency_ms", Value: func(r Record) float64 { return r.LatencyMS }}
	Energy  = Objective{Name: "energy_mj", Value: func(r Record) float64 { return r.EnergyMJ }}
	EDP     = Objective{Name: "edp", Value: func(r Record) float64 { return r.EDP }}
)

// Frontier extracts the Pareto-optimal records under the given objectives
// (all minimized; default latency+energy — EDP is monotone in both, so the
// latency/energy frontier already contains every EDP-optimal point). Records
// are deduplicated by digest first; the frontier comes back sorted by the
// first objective, ties by the second, then digest, so the output is stable
// across evaluation order.
func Frontier(recs []Record, objs ...Objective) []Record {
	if len(objs) == 0 {
		objs = []Objective{Latency, Energy}
	}
	seen := map[string]bool{}
	var pts []Record
	for _, r := range recs {
		if !seen[r.Digest] {
			seen[r.Digest] = true
			pts = append(pts, r)
		}
	}
	sort.Slice(pts, func(a, b int) bool {
		for _, o := range objs {
			va, vb := o.Value(pts[a]), o.Value(pts[b])
			if va != vb {
				return va < vb
			}
		}
		return pts[a].Digest < pts[b].Digest
	})
	dominates := func(a, b Record) bool {
		strict := false
		for _, o := range objs {
			va, vb := o.Value(a), o.Value(b)
			if va > vb {
				return false
			}
			if va < vb {
				strict = true
			}
		}
		return strict
	}
	var front []Record
	for _, p := range pts {
		dominated := false
		for _, f := range front {
			if dominates(f, p) {
				dominated = true
				break
			}
		}
		if !dominated {
			front = append(front, p)
		}
	}
	return front
}

// ByBackend groups records by backend name, preserving record order within
// each group — the per-accelerator view of a cross-backend sweep (e.g. for
// per-backend frontiers: Frontier(ByBackend(recs)["ptb"])).
func ByBackend(recs []Record) map[string][]Record {
	out := map[string][]Record{}
	for _, r := range recs {
		out[r.BackendName()] = append(out[r.BackendName()], r)
	}
	return out
}

// FrontierJSON is the serialized frontier artifact cmd/dse emits and CI
// archives.
type FrontierJSON struct {
	Objectives []string `json:"objectives"`
	Evaluated  int      `json:"evaluated"` // records the frontier was drawn from
	// Backends counts the frontier points per backend — on a cross-backend
	// sweep it shows at a glance which accelerators reach the frontier
	// (encoding/json orders map keys, so the artifact stays canonical).
	Backends map[string]int `json:"backends"`
	Points   []Record       `json:"points"`
}

// EncodeFrontier packages a frontier with its provenance as indented JSON.
func EncodeFrontier(front []Record, evaluated int, objs ...Objective) ([]byte, error) {
	if len(objs) == 0 {
		objs = []Objective{Latency, Energy}
	}
	fj := FrontierJSON{Evaluated: evaluated, Points: front, Backends: map[string]int{}}
	for _, o := range objs {
		fj.Objectives = append(fj.Objectives, o.Name)
	}
	for _, r := range front {
		fj.Backends[r.BackendName()]++
	}
	return json.MarshalIndent(fj, "", "  ")
}

// FprintRungs renders a search's rung progression, one line per rung, then
// how many of the grid's points reached full fidelity. Every line starts
// with prefix.
func FprintRungs(w io.Writer, prefix string, rungs []RungSummary, gridPoints int) {
	full := 0
	for i, rung := range rungs {
		label := fmt.Sprintf("fidelity 1/%d", rung.Fidelity)
		if rung.Fidelity <= 1 {
			label = "full fidelity"
			full = rung.Candidates
		}
		fmt.Fprintf(w, "%srung %d: %-13s %3d candidates, %3d evaluated, %3d promoted\n",
			prefix, i+1, label, rung.Candidates, rung.Evaluated, rung.Survivors)
	}
	fmt.Fprintf(w, "%sfull-fidelity evaluations: %d of %d grid points\n", prefix, full, gridPoints)
}

// FprintFrontier renders the frontier as an aligned ASCII table, one row
// per point with its backend in the leading column.
func FprintFrontier(w io.Writer, front []Record) {
	rows := [][]string{{"backend", "point", "latency(ms)", "energy(mJ)", "EDP(pJ.s)"}}
	for _, r := range front {
		rows = append(rows, []string{r.BackendName(), r.Point().Label(),
			fmt.Sprintf("%.4f", r.LatencyMS),
			fmt.Sprintf("%.4f", r.EnergyMJ),
			fmt.Sprintf("%.4g", r.EDP)})
	}
	widths := make([]int, len(rows[0]))
	for _, row := range rows {
		for i, c := range row {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	for ri, row := range rows {
		parts := make([]string, len(row))
		for i, c := range row {
			parts[i] = fmt.Sprintf("%-*s", widths[i], c)
		}
		fmt.Fprintln(w, "  "+strings.Join(parts, "  "))
		if ri == 0 {
			sep := make([]string, len(row))
			for i := range sep {
				sep[i] = strings.Repeat("-", widths[i])
			}
			fmt.Fprintln(w, "  "+strings.Join(sep, "  "))
		}
	}
}
