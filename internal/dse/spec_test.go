package dse

import (
	"context"
	"encoding/json"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/backend"
)

func TestSpecCodecRoundTrip(t *testing.T) {
	spec := SweepSpec{
		Space: Space{Models: []int{4}, Backends: []string{"bishop", "ptb", "gpu"},
			ECPThetas: []int{0, 10}},
		Seed: 7, Shard: 1, Shards: 2, Checkpoint: "ck.jsonl", Jobs: 3,
	}
	data, err := EncodeSpec(spec)
	if err != nil {
		t.Fatalf("EncodeSpec: %v", err)
	}
	got, err := DecodeSpec(data)
	if err != nil {
		t.Fatalf("DecodeSpec: %v", err)
	}
	if !reflect.DeepEqual(got, spec) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, spec)
	}
}

func TestSpecDecodeStrict(t *testing.T) {
	for _, bad := range []string{
		`{"space":{"modelz":[3]}}`,             // typo'd axis name
		`{"space":{"models":[3]},"seeed":1}`,   // typo'd top-level field
		`{"space":{"models":[3]}}{}`,           // trailing data
		`{"space":{"models":[99]}}`,            // invalid axis value
		`{"space":{"backends":["nope"]}}`,      // unregistered backend
		`{"space":{"models":[3]},"random":-1}`, // negative sample count
		`{"space":{"models":[3]},"shard":5}`,   // shard outside [0,1)
		`{"space":{"ptb":[{"Bogus":1}]}}`,      // unknown field nested in a backend axis
	} {
		if _, err := DecodeSpec([]byte(bad)); err == nil {
			t.Errorf("DecodeSpec(%s) accepted", bad)
		}
	}
}

func TestSpecDigestStableAcrossDefaultSpelling(t *testing.T) {
	compact := SweepSpec{Space: Space{Models: []int{3}}}
	explicit := SweepSpec{Space: Space{Models: []int{3}}.normalized(), Seed: 1, Shards: 1}
	if compact.Digest() != explicit.Digest() {
		t.Fatalf("digest differs between compact and default-spelled specs: %016x vs %016x",
			compact.Digest(), explicit.Digest())
	}
	// Execution attachments must not move the digest (same results, different plumbing).
	attached := compact
	attached.Checkpoint, attached.TraceDir, attached.Jobs = "ck.jsonl", "traces", 8
	if attached.Digest() != compact.Digest() {
		t.Fatal("checkpoint/trace-dir/jobs changed the spec digest")
	}
	// Result-identity knobs must move it.
	for name, mut := range map[string]func(*SweepSpec){
		"seed":   func(s *SweepSpec) { s.Seed = 2 },
		"shard":  func(s *SweepSpec) { s.Shards = 2; s.Shard = 1 },
		"random": func(s *SweepSpec) { s.Random = 4 },
		"space":  func(s *SweepSpec) { s.Space.Models = []int{4} },
	} {
		m := compact
		mut(&m)
		if m.Digest() == compact.Digest() {
			t.Errorf("%s change did not move the spec digest", name)
		}
	}
}

func TestSpecPointsMatchSpace(t *testing.T) {
	spec := SweepSpec{Space: Space{Models: []int{4}, ECPThetas: []int{0, 10}, Backends: []string{"bishop", "gpu"}}}
	if got, want := spec.Points(), spec.Space.Grid(); !reflect.DeepEqual(got, want) {
		t.Fatalf("grid spec points differ from Space.Grid: %d vs %d points", len(got), len(want))
	}
	spec.Random = 6
	spec.Seed = 9
	if got, want := spec.Points(), spec.Space.Sample(6, 9); !reflect.DeepEqual(got, want) {
		t.Fatal("random spec points differ from Space.Sample")
	}
}

// TestPlanAdoptAndOnRecord pins the serving-layer contract: records
// adopted through Plan.Adopt (result cache hits) are not re-evaluated and
// not passed to OnRecord, OnRecord observes exactly the fresh evaluations,
// the merged set is identical to a cold sweep, and an adopted record must
// pass the same rule as a checkpoint line.
func TestPlanAdoptAndOnRecord(t *testing.T) {
	spec := SweepSpec{Space: Space{Models: []int{4}, ECPThetas: []int{0, 10}}, Seed: 1}
	points := spec.Points()
	cold, err := Sweep(context.Background(), points, spec.Config())
	if err != nil {
		t.Fatalf("cold sweep: %v", err)
	}
	if !cold.Complete() {
		t.Fatal("cold sweep incomplete")
	}

	var streamed []Record
	cfg := spec.Config()
	cfg.OnRecord = func(r Record) { streamed = append(streamed, r) }
	p, err := OpenPlan(points, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if n := p.Adopt(cold.Records[:1]); n != 1 {
		t.Fatalf("adopted %d records, want 1", n)
	}
	if err := p.Run(context.Background()); err != nil {
		t.Fatalf("warm run: %v", err)
	}
	warm := p.Result()
	if want := len(points) - 1; warm.Evaluated != want {
		t.Fatalf("warm run evaluated %d points, want %d", warm.Evaluated, want)
	}
	if len(streamed) != warm.Evaluated {
		t.Fatalf("OnRecord saw %d records, want %d", len(streamed), warm.Evaluated)
	}
	for _, s := range streamed {
		if s.Digest == cold.Records[0].Digest {
			t.Fatal("OnRecord observed an adopted record")
		}
	}
	if !reflect.DeepEqual(mustMarshalRecords(t, warm.Records), mustMarshalRecords(t, cold.Records)) {
		t.Fatal("adopting run's records differ from cold sweep")
	}

	// An adopted record at the wrong seed must not satisfy a point.
	stale := cold.Records[0]
	stale.Seed = 99
	p, err = OpenPlan(points, spec.Config())
	if err != nil {
		t.Fatal(err)
	}
	if n := p.Adopt([]Record{stale}); n != 0 {
		t.Fatalf("adopted %d stale records", n)
	}
	if err := p.Run(context.Background()); err != nil {
		t.Fatalf("stale-adopt run: %v", err)
	}
	if again := p.Result(); again.Evaluated != len(points) {
		t.Fatalf("stale adopted record satisfied a point (evaluated %d, want %d)", again.Evaluated, len(points))
	}
}

// TestSpecSweepMatchesFlagPath pins that running through a spec (checkpoint
// attached) produces the same record bytes as the pre-spec Config path.
func TestSpecSweepMatchesFlagPath(t *testing.T) {
	dir := t.TempDir()
	spec := SweepSpec{
		Space:      Space{Models: []int{4}, Backends: []string{backend.BishopName, backend.GPUName}},
		Seed:       1,
		Checkpoint: filepath.Join(dir, "spec.jsonl"),
	}
	rs, err := Sweep(context.Background(), spec.Points(), spec.Config())
	if err != nil {
		t.Fatalf("spec sweep: %v", err)
	}
	direct, err := Sweep(context.Background(), spec.Space.Grid(), Config{Seed: 1, Checkpoint: filepath.Join(dir, "direct.jsonl")})
	if err != nil {
		t.Fatalf("direct sweep: %v", err)
	}
	if got, want := mustMarshalRecords(t, rs.Records), mustMarshalRecords(t, direct.Records); got != want {
		t.Fatalf("spec-path records differ from direct records:\n%s\nvs\n%s", got, want)
	}
}

func mustMarshalRecords(t *testing.T, recs []Record) string {
	t.Helper()
	var b strings.Builder
	for _, r := range recs {
		data, err := json.Marshal(r)
		if err != nil {
			t.Fatalf("marshal record: %v", err)
		}
		b.Write(data)
		b.WriteByte('\n')
	}
	return b.String()
}
