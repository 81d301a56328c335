package dse

import (
	"context"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/bundle"
)

// searchSpace is a 64-point grid on the cheapest Table 2 model: 2 BSA ×
// 2 shapes × (2 splits + 2 explicit θ) × 4 ECP settings. Big enough that a
// halving ladder visibly prunes it, cheap enough for a unit test.
func searchSpace() Space {
	return Space{
		Models:       []int{4},
		BSA:          []bool{false, true},
		Shapes:       []bundle.Shape{{BSt: 4, BSn: 2}, {BSt: 2, BSn: 2}},
		ThetaS:       []int{-1, 2, 4},
		SplitTargets: []float64{0.25, 0.75},
		ECPThetas:    []int{0, 4, 6, 10},
	}
}

func TestSearchSpecCodecAndDigest(t *testing.T) {
	spec := SearchSpec{Space: searchSpace(), Rungs: []int{8, 4, 1}, Eta: 2}
	data, err := EncodeSearchSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeSearchSpec(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.Digest() != spec.Digest() {
		t.Fatal("search spec digest must survive the codec round trip")
	}
	if _, err := DecodeSearchSpec([]byte(`{"space":{},"rungs":[8,1],"bogus":1}`)); err == nil {
		t.Fatal("strict decode must reject unknown fields")
	}

	// The digest keys result identity: execution attachments don't move it,
	// and the zero spellings digest like their explicit defaults.
	attached := spec
	attached.Checkpoint, attached.TraceDir, attached.Jobs = "c.jsonl", "traces", 7
	if attached.Digest() != spec.Digest() {
		t.Fatal("execution attachments must not move the search digest")
	}
	zero := SearchSpec{Space: searchSpace()}
	dflt := SearchSpec{Space: searchSpace(), Seed: 1, Rungs: []int{8, 4, 1},
		Eta: 2, Objective: ObjectiveEDP, MinSurvivors: 1}
	if zero.Digest() != dflt.Digest() {
		t.Fatal("zero spellings must digest like their explicit defaults")
	}
	other := spec
	other.Rungs = []int{4, 1}
	if other.Digest() == spec.Digest() {
		t.Fatal("a different fidelity ladder is a different search")
	}
}

func TestSearchSpecValidate(t *testing.T) {
	ok := SearchSpec{Space: searchSpace()}
	if err := ok.Validate(); err != nil {
		t.Fatalf("default spec must validate: %v", err)
	}
	for name, bad := range map[string]SearchSpec{
		"increasing rungs":   {Space: searchSpace(), Rungs: []int{4, 8, 1}},
		"repeated rung":      {Space: searchSpace(), Rungs: []int{4, 4, 1}},
		"no full-fid rung":   {Space: searchSpace(), Rungs: []int{8, 4, 2}},
		"zero divisor":       {Space: searchSpace(), Rungs: []int{8, 0}},
		"eta one":            {Space: searchSpace(), Eta: 1},
		"negative eta":       {Space: searchSpace(), Eta: -2},
		"unknown objective":  {Space: searchSpace(), Objective: "fastest"},
		"negative survivors": {Space: searchSpace(), MinSurvivors: -1},
		"negative random":    {Space: searchSpace(), Random: -3},
	} {
		if err := bad.Validate(); err == nil {
			t.Errorf("%s must not validate", name)
		}
	}
}

func TestKeepCount(t *testing.T) {
	for _, tc := range []struct{ n, eta, min, want int }{
		{64, 2, 1, 32},
		{3, 2, 1, 1},
		{3, 4, 1, 1},
		{3, 2, 2, 2},
		{1, 2, 4, 1}, // min capped at n
		{10, 3, 1, 3},
	} {
		if got := keepCount(tc.n, tc.eta, tc.min); got != tc.want {
			t.Errorf("keepCount(%d,%d,%d) = %d want %d", tc.n, tc.eta, tc.min, got, tc.want)
		}
	}
}

// TestSearchHalvesBudgetAndMatchesGrid pins the PR acceptance criterion: a
// seeded halving ladder over a 64-point space runs at most half the
// full-fidelity simulations of the plain grid sweep, and every survivor's
// full-fidelity record is identical — byte for byte once serialized — to
// that point's record from the grid sweep.
func TestSearchHalvesBudgetAndMatchesGrid(t *testing.T) {
	spec := SearchSpec{Space: searchSpace()}
	grid := spec.Points()
	if len(grid) != 64 {
		t.Fatalf("grid size %d want 64", len(grid))
	}
	res, err := Search(context.Background(), spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	last := res.Rungs[len(res.Rungs)-1]
	if last.Fidelity != 1 {
		t.Fatalf("last rung fidelity %d want 1", last.Fidelity)
	}
	if last.Candidates*2 > len(grid) {
		t.Fatalf("%d full-fidelity evaluations exceed half of the %d-point grid",
			last.Candidates, len(grid))
	}
	if len(res.Survivors) != last.Candidates || res.Final == nil {
		t.Fatalf("survivors %d, final %v; want %d survivors with a final set",
			len(res.Survivors), res.Final, last.Candidates)
	}

	full, err := Sweep(context.Background(), grid, Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	byDigest := map[string]Record{}
	for _, r := range full.Records {
		byDigest[r.Digest] = r
	}
	for _, r := range res.Final.Records {
		want, ok := byDigest[r.Digest]
		if !ok {
			t.Fatalf("survivor %s not in the grid sweep", r.Digest)
		}
		if !reflect.DeepEqual(r, want) {
			t.Fatalf("survivor record differs from the grid sweep:\nsearch: %+v\ngrid:   %+v", r, want)
		}
	}

	// Determinism: the identical spec replays the identical rung sequence.
	again, err := Search(context.Background(), spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(again.Survivors, res.Survivors) ||
		!reflect.DeepEqual(again.Rungs, res.Rungs) {
		t.Fatal("search must be deterministic for a fixed spec")
	}
}

// TestFprintRungs pins the shared rung report of cmd/dse and bishopctl:
// one line per rung, then the full-fidelity count against the grid.
func TestFprintRungs(t *testing.T) {
	var sb strings.Builder
	FprintRungs(&sb, "ctl: ", []RungSummary{
		{Fidelity: 8, Candidates: 96, Evaluated: 96, Survivors: 48},
		{Fidelity: 1, Candidates: 24, Evaluated: 0, Survivors: 24},
	}, 96)
	want := "ctl: rung 1: fidelity 1/8   96 candidates,  96 evaluated,  48 promoted\n" +
		"ctl: rung 2: full fidelity  24 candidates,   0 evaluated,  24 promoted\n" +
		"ctl: full-fidelity evaluations: 24 of 96 grid points\n"
	if sb.String() != want {
		t.Fatalf("FprintRungs:\n%s\nwant:\n%s", sb.String(), want)
	}
}

// TestSearchObjectivesDiverge sanity-checks that the objective actually
// steers promotion: latency- and energy-ranked searches over a space with
// real latency/energy tension keep different survivor sets.
func TestSearchObjectivesDiverge(t *testing.T) {
	base := SearchSpec{Space: searchSpace(), Rungs: []int{8, 1}, Eta: 8}
	results := map[string][]string{}
	for _, obj := range []string{ObjectiveLatency, ObjectiveEnergy, ObjectivePareto} {
		spec := base
		spec.Objective = obj
		res, err := Search(context.Background(), spec, nil)
		if err != nil {
			t.Fatalf("%s: %v", obj, err)
		}
		results[obj] = res.Survivors
	}
	if reflect.DeepEqual(results[ObjectiveLatency], results[ObjectiveEnergy]) {
		t.Fatal("latency and energy rankings should disagree on this space")
	}
	if len(results[ObjectivePareto]) == 0 {
		t.Fatal("pareto objective promoted nothing")
	}
}

// TestSearchResumesBetweenRungs kills a search after its first rung
// completes, then re-runs the same spec on the same checkpoint: the finished
// rung must be adopted wholesale (zero re-evaluation) and the final records
// must match an uninterrupted search exactly.
func TestSearchResumesBetweenRungs(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "search.jsonl")
	spec := SearchSpec{Space: searchSpace(), Rungs: []int{8, 1}, Eta: 4, Checkpoint: ckpt}

	want, err := Search(context.Background(), SearchSpec{Space: searchSpace(), Rungs: []int{8, 1}, Eta: 4}, nil)
	if err != nil {
		t.Fatal(err)
	}

	// A runner that dies the moment the first rung has been swept.
	rungs := 0
	killed := false
	_, err = Search(context.Background(), spec, func(ctx context.Context, sw SweepSpec) (*ResultSet, error) {
		if rungs++; rungs > 1 {
			killed = true
			return nil, context.Canceled
		}
		return Sweep(ctx, sw.Points(), sw.Config())
	})
	if err == nil || !killed {
		t.Fatalf("killer runner did not interrupt the search: %v", err)
	}

	resumed, err := Search(context.Background(), spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	if resumed.Rungs[0].Evaluated != 0 {
		t.Fatalf("resume re-evaluated %d rung-1 points, want 0", resumed.Rungs[0].Evaluated)
	}
	if !reflect.DeepEqual(resumed.Survivors, want.Survivors) {
		t.Fatal("resumed survivors differ from the uninterrupted search")
	}
	if !reflect.DeepEqual(resumed.Final.Records, want.Final.Records) {
		t.Fatal("resumed final records differ from the uninterrupted search")
	}

	// A third pass re-evaluates nothing at any fidelity.
	third, err := Search(context.Background(), spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	if third.Evaluated != 0 {
		t.Fatalf("no-op resume evaluated %d points, want 0", third.Evaluated)
	}
}

// TestSearchResumesMidRung cancels the search while the first rung is only
// partially checkpointed — a SIGKILL mid-rung — and requires the resume to
// adopt the durable prefix, finish the rung, and end bit-identical to an
// uninterrupted search.
func TestSearchResumesMidRung(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "search.jsonl")
	spec := SearchSpec{Space: searchSpace(), Rungs: []int{8, 1}, Eta: 4, Checkpoint: ckpt, Jobs: 1}

	want, err := Search(context.Background(), SearchSpec{Space: searchSpace(), Rungs: []int{8, 1}, Eta: 4, Jobs: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}

	// Cancel once three records are durable: OnRecord runs only after the
	// checkpoint holds the record.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	n := 0
	killer := func(ctx context.Context, sw SweepSpec) (*ResultSet, error) {
		cfg := sw.Config()
		cfg.OnRecord = func(Record) {
			if n++; n == 3 {
				cancel()
			}
		}
		return Sweep(ctx, sw.Points(), cfg)
	}
	if _, err := Search(ctx, spec, killer); err == nil {
		t.Fatal("search outran the cancel at its third record")
	}
	durable, _ := os.ReadFile(ckpt)
	adopted := strings.Count(string(durable), "\n")

	resumed, err := Search(context.Background(), spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	if adopted > 0 && resumed.Evaluated > 64+16-adopted {
		t.Fatalf("resume evaluated %d with %d records durable: re-evaluation", resumed.Evaluated, adopted)
	}
	if !reflect.DeepEqual(resumed.Survivors, want.Survivors) ||
		!reflect.DeepEqual(resumed.Final.Records, want.Final.Records) {
		t.Fatal("mid-rung resume differs from the uninterrupted search")
	}
}

// TestSweepFidelityScoped pins the adoption rule that makes one shared
// checkpoint safe for a whole ladder: a low-fidelity record never satisfies
// a higher-fidelity sweep of the same point, and vice versa.
func TestSweepFidelityScoped(t *testing.T) {
	points := searchSpace().Grid()[:3]
	ckpt := filepath.Join(t.TempDir(), "fid.jsonl")
	low, err := Sweep(context.Background(), points, Config{Seed: 1, Fidelity: 8, Checkpoint: ckpt})
	if err != nil || low.Evaluated != 3 {
		t.Fatalf("fidelity-8 sweep: %v, evaluated %d", err, low.Evaluated)
	}
	full, err := Sweep(context.Background(), points, Config{Seed: 1, Checkpoint: ckpt})
	if err != nil {
		t.Fatal(err)
	}
	if full.Evaluated != 3 {
		t.Fatalf("full sweep adopted low-fidelity records: evaluated %d want 3", full.Evaluated)
	}
	for i := range points {
		if low.Records[i].Total == full.Records[i].Total {
			t.Fatalf("point %d: 1/8-scale and full-trace metrics identical", i)
		}
		if low.Records[i].Fidelity != 8 || full.Records[i].Fidelity != 0 {
			t.Fatalf("point %d: fidelity tags %d/%d want 8/0",
				i, low.Records[i].Fidelity, full.Records[i].Fidelity)
		}
	}
	// And both fidelities resume from the same file without re-evaluating.
	again, err := Sweep(context.Background(), points, Config{Seed: 1, Fidelity: 8, Checkpoint: ckpt})
	if err != nil || again.Evaluated != 0 {
		t.Fatalf("fidelity-8 resume: %v, evaluated %d want 0", err, again.Evaluated)
	}
}

// TestSampleOverdrawTerminates pins Space.Sample's overdraw contract: asking
// for more points than the space holds terminates, returns exactly count
// draws, and stays deterministic — Sample(k, seed) is a prefix of
// Sample(n, seed) for n >= k, so shard assignments survive a count change.
func TestSampleOverdrawTerminates(t *testing.T) {
	small := Space{Models: []int{4}, ECPThetas: []int{0, 10}} // 2 distinct points
	done := make(chan []Point, 1)
	go func() { done <- small.Sample(50, 3) }()
	var pts []Point
	select {
	case pts = <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("overdrawn Sample did not terminate")
	}
	if len(pts) != 50 {
		t.Fatalf("Sample(50) returned %d points", len(pts))
	}
	distinct := map[uint64]bool{}
	for _, p := range pts {
		distinct[p.Digest()] = true
	}
	if len(distinct) != 2 {
		t.Fatalf("overdrawn sample covered %d distinct points, space holds 2", len(distinct))
	}
	if !reflect.DeepEqual(small.Sample(10, 3), pts[:10]) {
		t.Fatal("Sample(k, seed) must be a prefix of Sample(n, seed) for n >= k")
	}
	// The sweep layer dedups the repeats: an overdrawn sampled sweep still
	// evaluates each distinct point once.
	rs, err := Sweep(context.Background(), pts, Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rs.Evaluated != 2 || len(rs.Records) != 50 {
		t.Fatalf("overdrawn sweep evaluated %d (want 2) with %d records (want 50)",
			rs.Evaluated, len(rs.Records))
	}
}
