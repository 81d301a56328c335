package dse

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// TestPlanDuplicateDelivery pins the re-delivery contract the fleet
// coordinator relies on: a record for a position that is already filled —
// still waiting behind an earlier position, or committed — is dropped and
// reported not fresh, as is a record of another seed. Each record is
// appended once and passed to OnRecord once, and the committed records do
// not change.
func TestPlanDuplicateDelivery(t *testing.T) {
	points := testSpace().Grid()[:3]
	want, err := Sweep(context.Background(), points, Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	ckpt := filepath.Join(t.TempDir(), "dup.jsonl")
	var streamed []Record
	p, err := OpenPlan(points, Config{Seed: 1, Checkpoint: ckpt, OnRecord: func(r Record) { streamed = append(streamed, r) }})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if got := p.Todo(); !reflect.DeepEqual(got, []int{0, 1, 2}) {
		t.Fatalf("todo = %v", got)
	}
	changed := want.Records[1]
	changed.LatencyMS++ // a re-delivery that differs must not replace the first
	wrongSeed := want.Records[2]
	wrongSeed.Seed = 2
	for _, step := range []struct {
		k     int
		rec   Record
		fresh bool
	}{
		{1, want.Records[1], true},  // waits behind position 0
		{1, changed, false},         // filled, not yet committed
		{0, want.Records[0], true},  // commits positions 0 and 1
		{1, changed, false},         // filled and committed
		{2, wrongSeed, false},       // another experiment's record
		{2, want.Records[2], true},  // commits position 2
		{0, want.Records[0], false}, // committed
	} {
		fresh, err := p.Commit(step.k, step.rec)
		if err != nil {
			t.Fatal(err)
		}
		if fresh != step.fresh {
			t.Fatalf("Commit(%d, seed %d, latency %v) fresh = %v, want %v", step.k, step.rec.Seed, step.rec.LatencyMS, fresh, step.fresh)
		}
	}

	rs := p.Result()
	if rs.Evaluated != len(points) || !reflect.DeepEqual(rs.Records, want.Records) {
		t.Fatalf("result: evaluated %d, records equal %v", rs.Evaluated, reflect.DeepEqual(rs.Records, want.Records))
	}
	if !reflect.DeepEqual(streamed, want.Records) {
		t.Fatalf("OnRecord saw %d records, want each of the %d once, in unit order", len(streamed), len(want.Records))
	}
	data, err := os.ReadFile(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	var wantBytes []byte
	for _, rec := range want.Records {
		if wantBytes, err = AppendRecordLine(wantBytes, rec); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(data, wantBytes) {
		t.Fatalf("checkpoint holds %d lines, want each of the %d records once", bytes.Count(data, []byte("\n")), len(want.Records))
	}
}
