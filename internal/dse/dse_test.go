package dse

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/accel"
	"repro/internal/bundle"
	"repro/internal/transformer"
	"repro/internal/workload"
)

// testSpace is a small but non-trivial grid on the cheapest Table 2 model:
// 2 shapes × (2 splits + 1 explicit θ) × 2 ECP settings = 12 points.
func testSpace() Space {
	return Space{
		Models:       []int{4},
		Shapes:       []bundle.Shape{{BSt: 4, BSn: 2}, {BSt: 2, BSn: 2}},
		ThetaS:       []int{-1, 4},
		SplitTargets: []float64{0.25, 0.75},
		ECPThetas:    []int{0, 10},
	}
}

func TestGridDeterministicAndDigestUnique(t *testing.T) {
	a, b := testSpace().Grid(), testSpace().Grid()
	if !reflect.DeepEqual(a, b) {
		t.Fatal("grid enumeration must be deterministic")
	}
	if len(a) != 12 {
		t.Fatalf("grid size %d want 12", len(a))
	}
	seen := map[uint64]int{}
	for i, p := range a {
		if j, dup := seen[p.Digest()]; dup {
			t.Fatalf("points %d and %d share digest %#x", j, i, p.Digest())
		}
		seen[p.Digest()] = i
	}
}

func TestSampleDeterministic(t *testing.T) {
	a := testSpace().Sample(20, 9)
	b := testSpace().Sample(20, 9)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("sampling must be seed-deterministic")
	}
	c := testSpace().Sample(20, 10)
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds should sample different sequences")
	}
}

func TestSpaceValidate(t *testing.T) {
	if err := (Space{}).Validate(); err != nil {
		t.Fatalf("zero space must validate: %v", err)
	}
	for _, bad := range []Space{
		{Models: []int{0}},
		{Models: []int{6}},
		{Shapes: []bundle.Shape{{BSt: 0, BSn: 2}}},
		{SplitTargets: []float64{1.5}},
		{ECPThetas: []int{-2}},
	} {
		if err := bad.Validate(); err == nil {
			t.Fatalf("space %+v must not validate", bad)
		}
	}
}

// TestEvaluateMatchesSimulate ties the DSE path to the golden conformance
// suite: a record's metrics are exactly the accel.Simulate report of the
// same trace and options, so the §6.5 figures reproduce their pre-DSE
// numbers through this engine.
func TestEvaluateMatchesSimulate(t *testing.T) {
	p := testSpace().Grid()[3]
	rec := Evaluate(p, 1)
	cfg := transformer.ModelZoo()[p.Model-1]
	tr := workload.CachedTrace(cfg, workload.Scenarios()[p.Model],
		workload.TraceOptions{BSA: p.BSA}, 1)
	rep := accel.Simulate(tr, p.Opt)
	if rec.Total != rep.Total {
		t.Fatalf("record total %+v differs from Simulate %+v", rec.Total, rep.Total)
	}
	if rec.LatencyMS != rep.LatencyMS() || rec.EnergyMJ != rep.EnergyMJ() || rec.EDP != rep.EDP() {
		t.Fatal("derived metrics differ from Simulate")
	}
	order, totals := rep.GroupTotals()
	if !reflect.DeepEqual(rec.GroupOrder, order) || !reflect.DeepEqual(rec.Groups, totals) {
		t.Fatal("group totals differ from Simulate")
	}
}

func TestSweepParallelDeterministic(t *testing.T) {
	points := testSpace().Grid()
	a, err := Sweep(context.Background(), points, Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Sweep(context.Background(), points, Config{Seed: 1, Jobs: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !a.Complete() || !reflect.DeepEqual(a.Records, b.Records) {
		t.Fatal("parallel and sequential sweeps must produce identical records")
	}
}

// TestCheckpointBytesIndependentOfJobs pins the commit order: a sweep's
// checkpoint holds its fresh records in unit order, so the file is the same
// bytes at any evaluator count, run after run.
func TestCheckpointBytesIndependentOfJobs(t *testing.T) {
	points := Space{
		Models:    []int{1, 2},
		BSA:       []bool{false, true},
		Shapes:    []bundle.Shape{{BSt: 4, BSn: 2}, {BSt: 2, BSn: 2}, {BSt: 1, BSn: 2}},
		ECPThetas: []int{0, 6},
	}.Grid()
	if len(points) != 24 {
		t.Fatalf("grid has %d points, want 24", len(points))
	}
	dir := t.TempDir()
	var want []byte
	for _, jobs := range []int{1, 2, 4} {
		for run := 0; run < 3; run++ {
			ckpt := filepath.Join(dir, fmt.Sprintf("j%d-%d.jsonl", jobs, run))
			if _, err := Sweep(context.Background(), points, Config{Seed: 1, Checkpoint: ckpt, Jobs: jobs}); err != nil {
				t.Fatal(err)
			}
			got, err := os.ReadFile(ckpt)
			if err != nil {
				t.Fatal(err)
			}
			if want == nil {
				want = got
			} else if !bytes.Equal(got, want) {
				t.Fatalf("Jobs: %d run %d wrote a checkpoint that differs from Jobs: 1's", jobs, run)
			}
		}
	}
}

func TestSweepInterruptResumeBitIdentical(t *testing.T) {
	points := testSpace().Grid()
	want, err := Sweep(context.Background(), points, Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	ref := filepath.Join(dir, "ref.jsonl")
	if _, err := Sweep(context.Background(), points, Config{Seed: 1, Checkpoint: ref, Jobs: 2}); err != nil {
		t.Fatal(err)
	}
	wantBytes, err := os.ReadFile(ref)
	if err != nil {
		t.Fatal(err)
	}

	// Kill the sweep as soon as its first record is durable: OnRecord runs
	// only after the checkpoint holds the record.
	ckpt := filepath.Join(dir, "sweep.jsonl")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	partial, err := Sweep(ctx, points, Config{Seed: 1, Checkpoint: ckpt, Jobs: 2,
		OnRecord: func(Record) { cancel() }})
	if err == nil || partial.Evaluated == 0 || partial.Evaluated >= len(points) {
		t.Fatalf("interrupted sweep: err %v, %d of %d points evaluated", err, partial.Evaluated, len(points))
	}

	// Resume from the checkpoint with a fresh context.
	resumed, err := Sweep(context.Background(), points, Config{Seed: 1, Checkpoint: ckpt, Jobs: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !resumed.Complete() {
		t.Fatalf("resume incomplete: %d/%d", len(resumed.Records), len(resumed.Points))
	}
	if !reflect.DeepEqual(resumed.Records, want.Records) {
		t.Fatal("interrupt+resume must be bit-identical to an uninterrupted sweep")
	}
	if resumed.Evaluated != len(points)-partial.Evaluated {
		t.Fatalf("resume evaluated %d points, want the %d the interrupted sweep left",
			resumed.Evaluated, len(points)-partial.Evaluated)
	}
	before, err := os.ReadFile(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, wantBytes) {
		t.Fatal("interrupt+resume checkpoint differs from an uninterrupted sweep's")
	}

	// A third pass evaluates nothing: every digest is already checkpointed,
	// so the checkpoint file does not grow.
	again, err := Sweep(context.Background(), points, Config{Seed: 1, Checkpoint: ckpt})
	if err != nil {
		t.Fatal(err)
	}
	after, _ := os.ReadFile(ckpt)
	if len(after) != len(before) {
		t.Fatal("no-op resume must not re-evaluate points")
	}
	if !reflect.DeepEqual(again.Records, want.Records) {
		t.Fatal("checkpoint-loaded records must round-trip bit-identically")
	}
}

func TestShardUnionEqualsUnsharded(t *testing.T) {
	points := testSpace().Grid()
	want, err := Sweep(context.Background(), points, Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	const shards = 3
	var union []byte
	var totalRecords int
	for i := 0; i < shards; i++ {
		ckpt := filepath.Join(dir, fmt.Sprintf("shard%d.jsonl", i))
		rs, err := Sweep(context.Background(), points,
			Config{Seed: 1, Shard: i, Shards: shards, Checkpoint: ckpt})
		if err != nil {
			t.Fatal(err)
		}
		totalRecords += len(rs.Records)
		data, err := os.ReadFile(ckpt)
		if err != nil {
			t.Fatal(err)
		}
		union = append(union, data...)
	}
	if totalRecords != len(points) {
		t.Fatalf("shards evaluated %d records want %d (overlap or gap)", totalRecords, len(points))
	}
	assertMergedShards(t, filepath.Join(dir, "union.jsonl"), union, points, want.Records)
}

// assertMergedShards writes the concatenated shard checkpoints to path and
// runs one unsharded sweep over it: the sweep must evaluate nothing and
// return exactly want, bit for bit (the merge also exercises the JSON round
// trip).
func assertMergedShards(t *testing.T, path string, union []byte, points []Point, want []Record) {
	t.Helper()
	if err := os.WriteFile(path, union, 0o644); err != nil {
		t.Fatal(err)
	}
	merged, err := Sweep(context.Background(), points, Config{Seed: 1, Checkpoint: path})
	if err != nil {
		t.Fatal(err)
	}
	if merged.Evaluated != 0 {
		t.Fatalf("sweep over the shard union evaluated %d points, want 0", merged.Evaluated)
	}
	if !reflect.DeepEqual(merged.Records, want) {
		t.Fatal("shard union must equal the unsharded sweep bit-for-bit")
	}
}

func TestResumeIgnoresOtherSeeds(t *testing.T) {
	points := testSpace().Grid()[:3]
	ckpt := filepath.Join(t.TempDir(), "seeds.jsonl")
	first, err := Sweep(context.Background(), points, Config{Seed: 1, Checkpoint: ckpt})
	if err != nil || first.Evaluated != 3 {
		t.Fatalf("seed-1 sweep: %v, evaluated %d", err, first.Evaluated)
	}
	// A different trace seed is a different experiment: nothing may be
	// reused from the seed-1 checkpoint.
	second, err := Sweep(context.Background(), points, Config{Seed: 7, Checkpoint: ckpt})
	if err != nil {
		t.Fatal(err)
	}
	if second.Evaluated != 3 {
		t.Fatalf("seed-7 sweep reused seed-1 records: evaluated %d want 3", second.Evaluated)
	}
	for i := range first.Records {
		if first.Records[i].Total == second.Records[i].Total {
			t.Fatalf("point %d: seed-1 and seed-7 metrics identical; wrong trace reused", i)
		}
	}
	// And resuming at seed 1 again still reuses the seed-1 records.
	third, err := Sweep(context.Background(), points, Config{Seed: 1, Checkpoint: ckpt})
	if err != nil || third.Evaluated != 0 {
		t.Fatalf("seed-1 resume: %v, evaluated %d want 0", err, third.Evaluated)
	}
	if !reflect.DeepEqual(third.Records, first.Records) {
		t.Fatal("seed-1 resume drifted")
	}
}

func TestSweepDedupesDuplicatePoints(t *testing.T) {
	grid := testSpace().Grid()[:2]
	points := []Point{grid[0], grid[1], grid[0], grid[1], grid[0]}
	rs, err := Sweep(context.Background(), points, Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rs.Evaluated != 2 {
		t.Fatalf("evaluated %d want 2 (duplicates must not re-simulate)", rs.Evaluated)
	}
	if len(rs.Records) != len(points) || !rs.Complete() {
		t.Fatalf("every point instance gets a record: %d/%d", len(rs.Records), len(points))
	}
	if rs.Records[0].Total != rs.Records[2].Total || rs.Records[2].Index != 2 {
		t.Fatal("duplicate instances must share the record under their own index")
	}
}

func TestSweepRejectsBadShard(t *testing.T) {
	if _, err := Sweep(context.Background(), nil, Config{Shard: 2, Shards: 2}); err == nil {
		t.Fatal("out-of-range shard must fail")
	}
}

// TestCheckpointSkipsOverlongLine pins that one malformed line of any
// length costs only itself: the records on both sides of a 17 MiB junk line
// still load.
func TestCheckpointSkipsOverlongLine(t *testing.T) {
	points := testSpace().Grid()[:2]
	dir := t.TempDir()
	clean := filepath.Join(dir, "clean.jsonl")
	if _, err := Sweep(context.Background(), points, Config{Seed: 1, Checkpoint: clean}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(clean)
	if err != nil {
		t.Fatal(err)
	}
	first, second, ok := bytes.Cut(data, []byte("\n"))
	if !ok || len(second) == 0 {
		t.Fatalf("clean checkpoint is not two lines: %q", data)
	}
	junk := bytes.Repeat([]byte("x"), 17<<20)
	ckpt := filepath.Join(dir, "overlong.jsonl")
	withJunk := slices.Concat(first, []byte("\n"), junk, []byte("\n"), second)
	if err := os.WriteFile(ckpt, withJunk, 0o644); err != nil {
		t.Fatal(err)
	}
	recs, err := LoadCheckpoint(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("loaded %d records around an overlong line, want 2", len(recs))
	}
}

func TestCheckpointToleratesTornTail(t *testing.T) {
	points := testSpace().Grid()[:2]
	ckpt := filepath.Join(t.TempDir(), "torn.jsonl")
	rs, err := Sweep(context.Background(), points[:1], Config{Seed: 1, Checkpoint: ckpt})
	if err != nil || len(rs.Records) != 1 {
		t.Fatalf("seed sweep: %v, %d records", err, len(rs.Records))
	}
	// Simulate a process killed mid-write: a torn, unterminated JSON tail.
	f, err := os.OpenFile(ckpt, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"index":7,"digest":"beef`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	resumed, err := Sweep(context.Background(), points, Config{Seed: 1, Checkpoint: ckpt})
	if err != nil {
		t.Fatal(err)
	}
	if !resumed.Complete() {
		t.Fatal("resume over a torn checkpoint must complete")
	}
	full, err := Sweep(context.Background(), points, Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(resumed.Records, full.Records) {
		t.Fatal("torn-tail recovery drifted from a clean sweep")
	}
	// The record appended after the torn fragment must be its own line on
	// disk: the file holds every point, and a second resume evaluates none.
	onDisk, err := LoadCheckpoint(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	if len(onDisk) != len(points) {
		t.Fatalf("checkpoint holds %d records after the torn-tail resume, want %d", len(onDisk), len(points))
	}
	again, err := Sweep(context.Background(), points, Config{Seed: 1, Checkpoint: ckpt})
	if err != nil || again.Evaluated != 0 {
		t.Fatalf("second resume: %v, evaluated %d want 0", err, again.Evaluated)
	}
}

func TestFrontierProperties(t *testing.T) {
	points := testSpace().Grid()
	rs, err := Sweep(context.Background(), points, Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	front := Frontier(rs.Records)
	if len(front) == 0 {
		t.Fatal("frontier of a non-empty sweep cannot be empty")
	}
	dominates := func(a, b Record) bool {
		return a.LatencyMS <= b.LatencyMS && a.EnergyMJ <= b.EnergyMJ &&
			(a.LatencyMS < b.LatencyMS || a.EnergyMJ < b.EnergyMJ)
	}
	for i, a := range front {
		for j, b := range front {
			if i != j && dominates(a, b) {
				t.Fatalf("frontier point %d dominates frontier point %d", i, j)
			}
		}
	}
	onFront := map[string]bool{}
	for _, r := range front {
		onFront[r.Digest] = true
	}
	for _, r := range rs.Records {
		if onFront[r.Digest] {
			continue
		}
		dominated := false
		for _, f := range front {
			if dominates(f, r) {
				dominated = true
				break
			}
		}
		if !dominated {
			t.Fatalf("record %s is undominated but missing from the frontier", r.Digest)
		}
	}
	// The frontier is sorted by latency and the EDP-optimal point is on it.
	for i := 1; i < len(front); i++ {
		if front[i].LatencyMS < front[i-1].LatencyMS {
			t.Fatal("frontier must be sorted by the first objective")
		}
	}
	best := rs.Records[0]
	for _, r := range rs.Records {
		if r.EDP < best.EDP {
			best = r
		}
	}
	if !onFront[best.Digest] {
		t.Fatal("the EDP-optimal record must lie on the latency/energy frontier")
	}
}

func TestEncodeFrontierAndLabels(t *testing.T) {
	points := testSpace().Grid()[:3]
	rs, err := Sweep(context.Background(), points, Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	front := Frontier(rs.Records)
	data, err := EncodeFrontier(front, len(rs.Records))
	if err != nil {
		t.Fatal(err)
	}
	s := string(data)
	for _, want := range []string{`"objectives"`, `"latency_ms"`, `"evaluated": 3`, `"points"`} {
		if !strings.Contains(s, want) {
			t.Fatalf("frontier JSON missing %s:\n%s", want, s)
		}
	}
	var sb strings.Builder
	FprintFrontier(&sb, front)
	if !strings.Contains(sb.String(), "m4") {
		t.Fatalf("ASCII table missing point labels:\n%s", sb.String())
	}
}

// TestSweepSharedTraceStoreBitIdentical pins the PR 4 acceptance criterion
// in-process: a 2-shard sweep whose shards read (and populate) one shared
// trace directory merges to records bit-identical to an unsharded sweep
// that regenerates its traces.
func TestSweepSharedTraceStoreBitIdentical(t *testing.T) {
	points := Space{Models: []int{4}, BSA: []bool{false, true}, ECPThetas: []int{0, 10}}.Grid()
	ctx := context.Background()

	// Unsharded reference, regenerating traces in memory (store disabled).
	workload.ResetTraceCache()
	workload.SetTraceDir("")
	defer func() { workload.SetTraceDir(""); workload.ResetTraceCache() }()
	full, err := Sweep(ctx, points, Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}

	// Two shards sharing one on-disk trace set. The cache reset between
	// shards makes each behave like a separate process: shard 0 generates
	// and persists, shard 1 must load what shard 0 stored.
	dir, ckptDir := t.TempDir(), t.TempDir()
	ckpt0, ckpt1 := filepath.Join(ckptDir, "shard0.jsonl"), filepath.Join(ckptDir, "shard1.jsonl")
	workload.ResetTraceCache()
	workload.SetTraceDir(dir)
	if _, err := Sweep(ctx, points, Config{Seed: 1, Shards: 2, Shard: 0, Checkpoint: ckpt0}); err != nil {
		t.Fatal(err)
	}
	workload.ResetTraceCache()
	if _, err := Sweep(ctx, points, Config{Seed: 1, Shards: 2, Shard: 1, Checkpoint: ckpt1}); err != nil {
		t.Fatal(err)
	}
	if h, _, e := workload.TraceStoreStats(); h == 0 || e != 0 {
		t.Fatalf("shard 1 should hit the shared store: hits=%d errors=%d", h, e)
	}

	var union []byte
	for _, ckpt := range []string{ckpt0, ckpt1} {
		data, err := os.ReadFile(ckpt)
		if err != nil {
			t.Fatal(err)
		}
		union = append(union, data...)
	}
	assertMergedShards(t, filepath.Join(ckptDir, "union.jsonl"), union, points, full.Records)
}
