package dse

// Tests for the backend coordinate of the DSE engine: cross-backend grids
// and sampling, record/checkpoint round trips with the backend tag, the
// acceptance pin that a swept record is bit-identical to the backend's
// direct simulator call, backward compatibility with PR 4-era (backend-less)
// checkpoints, and the guarantee that adding backends to a sweep does not
// multiply trace generation or store traffic.

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/accel"
	"repro/internal/backend"
	"repro/internal/baseline/gpu"
	"repro/internal/baseline/ptb"
	"repro/internal/bundle"
	"repro/internal/hw"
	"repro/internal/transformer"
	"repro/internal/workload"
)

// crossSpace is the smallest non-trivial cross-backend space: Model 4 on
// all three builtin backends, with an ECP axis that only the bishop branch
// crosses (2 bishop + 1 ptb + 1 gpu = 4 points).
func crossSpace() Space {
	return Space{Models: []int{4}, Backends: []string{"bishop", "ptb", "gpu"},
		ECPThetas: []int{0, 10}}
}

func TestGridBackendAxis(t *testing.T) {
	pts := crossSpace().Grid()
	if len(pts) != 4 {
		t.Fatalf("grid size %d want 4", len(pts))
	}
	var names []string
	seen := map[uint64]bool{}
	for _, p := range pts {
		names = append(names, p.BackendName())
		if seen[p.Digest()] {
			t.Fatal("duplicate digest in cross-backend grid")
		}
		seen[p.Digest()] = true
	}
	if !reflect.DeepEqual(names, []string{"bishop", "bishop", "ptb", "gpu"}) {
		t.Fatalf("backend order %v", names)
	}

	// A space without a Backends axis enumerates exactly as the pre-backend
	// engine did: same canonical bishop points, same order, same digests.
	legacy := Space{Models: []int{4}, ECPThetas: []int{0, 10}}
	withDefault := legacy
	withDefault.Backends = []string{backend.BishopName}
	if !reflect.DeepEqual(legacy.Grid(), withDefault.Grid()) {
		t.Fatal("explicit bishop backend must not change the grid")
	}
	for _, p := range legacy.Grid() {
		if p.Backend != nil || p.BackendName() != "bishop" {
			t.Fatal("default-axis points must be canonical bishop points")
		}
	}

	// The two spellings of a bishop point digest and label identically.
	spelled := Point{Model: 4, Backend: backend.Bishop{Opt: accel.DefaultOptions()}}
	canonical := Point{Model: 4, Opt: accel.DefaultOptions()}
	if spelled.Digest() != canonical.Digest() || spelled.Label() != canonical.Label() {
		t.Fatal("backend.Bishop spelling must canonicalize to the legacy point")
	}
}

func TestSpaceValidateBackends(t *testing.T) {
	if err := crossSpace().Validate(); err != nil {
		t.Fatalf("cross-backend space must validate: %v", err)
	}
	bad := crossSpace()
	bad.Backends = []string{"bishop", "tpu"}
	if err := bad.Validate(); err == nil || !strings.Contains(err.Error(), `unknown backend "tpu"`) {
		t.Fatalf("unknown backend must fail validation: %v", err)
	}
	badGPU := Space{Backends: []string{"gpu"}, GPU: []gpu.Options{{PowerW: -1}}}
	if err := badGPU.Validate(); err == nil || !strings.Contains(err.Error(), "Options.PowerW is negative") {
		t.Fatalf("invalid gpu options must fail validation by name: %v", err)
	}
	badPTB := Space{Backends: []string{"ptb"}, PTB: []ptb.Options{{TimeWindow: -2}}}
	if err := badPTB.Validate(); err == nil || !strings.Contains(err.Error(), "Options.TimeWindow is negative") {
		t.Fatalf("invalid ptb options must fail validation by name: %v", err)
	}
}

func TestSampleCoversBackends(t *testing.T) {
	pts := crossSpace().Sample(60, 3)
	if len(pts) != 60 {
		t.Fatalf("sampled %d want 60", len(pts))
	}
	counts := map[string]int{}
	for _, p := range pts {
		counts[p.BackendName()]++
	}
	for _, name := range []string{"bishop", "ptb", "gpu"} {
		if counts[name] == 0 {
			t.Fatalf("60 samples over 3 backends never drew %q: %v", name, counts)
		}
	}
	if !reflect.DeepEqual(pts, crossSpace().Sample(60, 3)) {
		t.Fatal("cross-backend sampling must be seed-deterministic")
	}
}

// TestSampleLegacyStreamUnchanged pins the seeded sample stream of a
// bishop-only space against the pre-backend engine (digest sequence
// captured from the PR 4 tree at seed 7): the single-element backend axis
// must not consume RNG draws, or legacy random-search checkpoints stop
// matching their digests and silently re-evaluate.
func TestSampleLegacyStreamUnchanged(t *testing.T) {
	legacy := []uint64{
		0xc1d8e52775a2c0e3, 0x5f4eec0ee687ef99, 0x88f8bdbc71065ad7, 0x1fa72de4519fc449,
		0xc1d8e52775a2c0e3, 0xc4f8d049ea702ff, 0xc1d8e52775a2c0e3, 0xbdbfee56ef7230d5,
	}
	s := Space{Models: []int{4},
		Shapes:       []bundle.Shape{{BSt: 4, BSn: 2}, {BSt: 2, BSn: 2}},
		ThetaS:       []int{-1, 4},
		SplitTargets: []float64{0.25, 0.75},
		ECPThetas:    []int{0, 10}}
	pts := s.Sample(len(legacy), 7)
	for i, p := range pts {
		if p.Digest() != legacy[i] {
			t.Fatalf("sample %d digests %#x, PR 4 engine drew %#x", i, p.Digest(), legacy[i])
		}
	}
}

// TestEvaluateMatchesBackendSimulate pins the acceptance criterion: for
// every backend, the record a sweep produces is bit-identical to invoking
// that backend's own Simulate directly on the same cached trace — the
// interface adds indirection, never arithmetic.
func TestEvaluateMatchesBackendSimulate(t *testing.T) {
	cfg := transformer.ModelZoo()[3]
	tr := workload.CachedTrace(cfg, workload.Scenarios()[4], workload.TraceOptions{}, 1)
	rs, err := Sweep(context.Background(), crossSpace().Grid(), Config{Seed: 1})
	if err != nil || !rs.Complete() {
		t.Fatalf("sweep: %v", err)
	}
	for _, rec := range rs.Records {
		p := rs.Points[rec.Index].canon()
		var rep *hw.Report
		switch rec.BackendName() {
		case "bishop":
			rep = accel.Simulate(tr, p.Opt)
		case "ptb":
			rep = ptb.Simulate(tr, p.Backend.(backend.PTB).Opt)
		case "gpu":
			rep = gpu.Simulate(tr, p.Backend.(backend.GPU).Opt)
		default:
			t.Fatalf("unexpected backend %q", rec.BackendName())
		}
		if rec.Total != rep.Total {
			t.Fatalf("%s: record total %+v differs from direct Simulate %+v",
				rec.BackendName(), rec.Total, rep.Total)
		}
		if rec.LatencyMS != rep.LatencyMS() || rec.EnergyMJ != rep.EnergyMJ() || rec.EDP != rep.EDP() {
			t.Fatalf("%s: derived metrics differ from direct Simulate", rec.BackendName())
		}
		order, totals := rep.GroupTotals()
		if !reflect.DeepEqual(rec.GroupOrder, order) || !reflect.DeepEqual(rec.Groups, totals) {
			t.Fatalf("%s: group totals differ from direct Simulate", rec.BackendName())
		}
	}
}

// TestBackendRecordsCheckpointRoundTrip drives tagged records through the
// checkpoint: non-bishop records persist their backend tag plus canonical
// options document, reload bit-identically, skip re-evaluation on resume,
// and reconstruct their exact design-space coordinate.
func TestBackendRecordsCheckpointRoundTrip(t *testing.T) {
	pts := crossSpace().Grid()
	ckpt := filepath.Join(t.TempDir(), "cross.jsonl")
	rs, err := Sweep(context.Background(), pts, Config{Seed: 1, Checkpoint: ckpt})
	if err != nil || !rs.Complete() || rs.Evaluated != len(pts) {
		t.Fatalf("sweep: %v (evaluated %d)", err, rs.Evaluated)
	}
	resumed, err := Sweep(context.Background(), pts, Config{Seed: 1, Checkpoint: ckpt})
	if err != nil || resumed.Evaluated != 0 {
		t.Fatalf("resume re-evaluated %d tagged points: %v", resumed.Evaluated, err)
	}
	if !reflect.DeepEqual(resumed.Records, rs.Records) {
		t.Fatal("checkpoint round trip drifted")
	}
	for _, rec := range resumed.Records {
		if got := DigestKey(rec.Point()); got != rec.Digest {
			t.Fatalf("%s record: reconstructed point digests to %s", rec.BackendName(), got)
		}
		switch rec.BackendName() {
		case "bishop":
			if rec.Backend != "" || rec.Opt == nil || rec.BackendOpt != nil {
				t.Fatalf("bishop record not canonical: %+v", rec)
			}
		default:
			if rec.Opt != nil || len(rec.BackendOpt) == 0 {
				t.Fatalf("%s record missing its options document", rec.BackendName())
			}
		}
	}
}

// legacySpace reconstructs the grid that produced
// testdata/legacy_checkpoint.jsonl — written by the PR 4-era engine
// (pre-backend schema, jobs=1, seed 1) via
//
//	cmd/dse -models 4 -shapes 4x2,2x2 -ecp 0,10 -seed 1 -jobs 1
func legacySpace() Space {
	return Space{Models: []int{4},
		Shapes:    []bundle.Shape{{BSt: 4, BSn: 2}, {BSt: 2, BSn: 2}},
		ECPThetas: []int{0, 10}}
}

// TestLegacyCheckpointResumesAsBishop pins checkpoint backward
// compatibility: a PR 4-era JSONL checkpoint (no backend field) decodes as
// bishop under the new decoder, resumes without re-evaluating any
// checkpointed point, and — because the canonical bishop record omits the
// backend tag — the new writer's bytes are indistinguishable from the
// legacy writer's.
func TestLegacyCheckpointResumesAsBishop(t *testing.T) {
	golden, err := os.ReadFile(filepath.Join("testdata", "legacy_checkpoint.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimSuffix(golden, []byte("\n")), []byte("\n"))
	pts := legacySpace().Grid()
	if len(lines) != len(pts) {
		t.Fatalf("testdata has %d lines for %d points", len(lines), len(pts))
	}
	want, err := Sweep(context.Background(), pts, Config{Seed: 1, Jobs: 1})
	if err != nil || !want.Complete() {
		t.Fatalf("reference sweep: %v", err)
	}

	// Complete legacy checkpoint: everything is reused, as bishop, and
	// re-marshaling each record reproduces the legacy line bytes.
	full := filepath.Join(t.TempDir(), "legacy.jsonl")
	if err := os.WriteFile(full, golden, 0o644); err != nil {
		t.Fatal(err)
	}
	rs, err := Sweep(context.Background(), pts, Config{Seed: 1, Checkpoint: full, Jobs: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rs.Evaluated != 0 {
		t.Fatalf("legacy resume re-evaluated %d checkpointed points", rs.Evaluated)
	}
	if !rs.Complete() || !reflect.DeepEqual(rs.Records, want.Records) {
		t.Fatal("legacy records must merge bit-identically to an uninterrupted sweep")
	}
	for i, rec := range rs.Records {
		if rec.BackendName() != "bishop" {
			t.Fatalf("legacy record %d decoded as %q", i, rec.BackendName())
		}
		data, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(data, lines[i]) {
			t.Fatalf("record %d re-marshals differently:\n got %s\nwant %s", i, data, lines[i])
		}
	}

	// Interrupted legacy checkpoint: the resume evaluates exactly the
	// missing points and appends lines byte-identical to what the legacy
	// writer would have written — the final file equals the uninterrupted
	// legacy file.
	partial := filepath.Join(t.TempDir(), "partial.jsonl")
	torn := append(bytes.Join(lines[:2], []byte("\n")), '\n')
	if err := os.WriteFile(partial, torn, 0o644); err != nil {
		t.Fatal(err)
	}
	rs2, err := Sweep(context.Background(), pts, Config{Seed: 1, Checkpoint: partial, Jobs: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rs2.Evaluated != len(pts)-2 {
		t.Fatalf("partial resume evaluated %d want %d", rs2.Evaluated, len(pts)-2)
	}
	if !reflect.DeepEqual(rs2.Records, want.Records) {
		t.Fatal("partial legacy resume drifted from the uninterrupted sweep")
	}
	final, err := os.ReadFile(partial)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(final, golden) {
		t.Fatalf("resumed checkpoint differs from the uninterrupted legacy file:\n got %s\nwant %s", final, golden)
	}
}

// TestCrossBackendSweepSharesTraces pins the drop-in speed guarantee:
// evaluating one workload on N backends generates (and, with a store
// configured, reads) its trace exactly once — never once per backend.
func TestCrossBackendSweepSharesTraces(t *testing.T) {
	pts := Space{Models: []int{4}, Backends: []string{"bishop", "ptb", "gpu"}}.Grid()
	if len(pts) != 3 {
		t.Fatalf("grid size %d want 3", len(pts))
	}
	ctx := context.Background()

	workload.ResetTraceCache()
	workload.SetTraceDir("")
	defer func() { workload.SetTraceDir(""); workload.ResetTraceCache() }()
	rs, err := Sweep(ctx, pts, Config{Seed: 1})
	if err != nil || !rs.Complete() {
		t.Fatalf("sweep: %v", err)
	}
	if hits, misses := workload.TraceCacheStats(); misses != 1 || hits != 2 {
		t.Fatalf("3 backends over one workload: %d misses (want 1), %d hits (want 2)", misses, hits)
	}

	// With a trace store: the first sweep generates and persists once; a
	// "fresh process" (cache reset) reads the stored trace once — adding
	// backends multiplies neither generation nor store reads.
	workload.ResetTraceCache()
	workload.SetTraceDir(t.TempDir())
	stored, err := Sweep(ctx, pts, Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if h, m, e := workload.TraceStoreStats(); h != 0 || m != 1 || e != 0 {
		t.Fatalf("store traffic on first sweep: hits=%d misses=%d errs=%d (want 0/1/0)", h, m, e)
	}
	workload.ResetTraceCache()
	again, err := Sweep(ctx, pts, Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if h, m, e := workload.TraceStoreStats(); h != 1 || m != 0 || e != 0 {
		t.Fatalf("store traffic on re-sweep: hits=%d misses=%d errs=%d (want 1/0/0)", h, m, e)
	}
	if !reflect.DeepEqual(stored.Records, rs.Records) || !reflect.DeepEqual(again.Records, rs.Records) {
		t.Fatal("store-backed cross-backend sweeps drifted from the in-memory sweep")
	}
}

// TestFrontierBackendAware exercises the backend-aware rendering: the
// frontier table carries a backend column, the JSON artifact counts points
// per backend, and ByBackend slices a cross-backend sweep into
// per-accelerator record sets for per-backend frontiers.
func TestFrontierBackendAware(t *testing.T) {
	rs, err := Sweep(context.Background(), crossSpace().Grid(), Config{Seed: 1})
	if err != nil || !rs.Complete() {
		t.Fatalf("sweep: %v", err)
	}
	groups := ByBackend(rs.Records)
	if len(groups) != 3 {
		t.Fatalf("ByBackend groups %d want 3", len(groups))
	}
	for name, recs := range groups {
		for _, r := range recs {
			if r.BackendName() != name {
				t.Fatalf("record %s grouped under %s", r.BackendName(), name)
			}
		}
		if len(Frontier(recs)) == 0 {
			t.Fatalf("per-backend frontier for %s empty", name)
		}
	}

	front := Frontier(rs.Records)
	var sb strings.Builder
	FprintFrontier(&sb, front)
	out := sb.String()
	if !strings.Contains(out, "backend") || !strings.Contains(out, "bishop") {
		t.Fatalf("frontier table missing backend column:\n%s", out)
	}
	data, err := EncodeFrontier(front, len(rs.Records))
	if err != nil {
		t.Fatal(err)
	}
	var fj FrontierJSON
	if err := json.Unmarshal(data, &fj); err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, n := range fj.Backends {
		total += n
	}
	if total != len(front) {
		t.Fatalf("frontier backend counts sum to %d want %d", total, len(front))
	}
	// Bishop Pareto-dominates both baselines on this grid, so the
	// cross-backend frontier is pure bishop — the paper's §6.2 claim as a
	// frontier property.
	if fj.Backends["bishop"] != len(front) {
		t.Fatalf("expected an all-bishop frontier, got %v", fj.Backends)
	}
}
