package dse

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/accel"
	"repro/internal/backend"
	"repro/internal/bundle"
)

func mergeTestPoints(t *testing.T) []Point {
	t.Helper()
	sp := Space{Models: []int{4}, ECPThetas: []int{0, 10}}
	pts := sp.Grid()
	if len(pts) < 2 {
		t.Fatalf("test space has %d points", len(pts))
	}
	return pts
}

// TestParseRecordLine pins the strict per-line discipline: a record line is
// the record's json.Marshal bytes plus a newline, it round-trips with or
// without that newline, and malformed / unknown-field / inconsistent lines
// are rejected rather than half-read.
func TestParseRecordLine(t *testing.T) {
	pts := mergeTestPoints(t)
	rec := Evaluate(pts[0], 1)
	line, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	enc, err := AppendRecordLine([]byte("x"), rec)
	if err != nil || string(enc) != "x"+string(line)+"\n" {
		t.Fatalf("AppendRecordLine = %q, %v; want the marshaled record and a newline after dst", enc, err)
	}
	if _, ok := ParseRecordLine(enc[1:]); !ok {
		t.Fatal("newline-terminated line rejected")
	}
	got, ok := ParseRecordLine(line)
	if !ok {
		t.Fatal("valid line rejected")
	}
	back, err := json.Marshal(got)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back, line) {
		t.Fatalf("parse∘marshal not identity:\n %s\n %s", back, line)
	}
	for _, bad := range [][]byte{
		nil,
		[]byte(""),
		[]byte("not json"),
		[]byte(`{"index":0`),            // torn tail
		[]byte(`{"index":0,"bogus":1}`), // unknown field
		[]byte(`{"index":0,"digest":"ff","model":4,"bsa":false,"seed":1,"latency_ms":1,"energy_mj":1,"edp":1,"total":{},"group_order":null,"groups":null}`), // bishop record without options
	} {
		if _, ok := ParseRecordLine(bad); ok {
			t.Errorf("ParseRecordLine(%q) accepted", bad)
		}
	}
}

// TestDedup pins the plan's adoption rule through checkpoint lines: a
// record of another seed or fidelity and a malformed record are not
// adopted, the first copy of a digest wins, and the result set is in
// enumeration order with indices rebound.
func TestDedup(t *testing.T) {
	pts := mergeTestPoints(t)
	r0, r1 := Evaluate(pts[0], 1), Evaluate(pts[1], 1)
	later := r0
	later.LatencyMS++ // a second copy of r0's digest
	wrong := r1
	wrong.Seed = 2
	proxy := r1
	proxy.Fidelity = 4
	malformed := r1
	malformed.Opt = nil // a bishop record without its options
	ckpt := filepath.Join(t.TempDir(), "dedup.jsonl")
	writeRecordLines(t, ckpt, r0, later, wrong, proxy, malformed)

	p, err := OpenPlan(pts, Config{Seed: 1, Checkpoint: ckpt})
	if err != nil {
		t.Fatal(err)
	}
	if got := p.Todo(); !reflect.DeepEqual(got, []int{1}) {
		t.Fatalf("todo = %v, want [1]: a wrong-seed, wrong-fidelity or malformed record was adopted", got)
	}
	p.Close()

	writeRecordLines(t, ckpt, r0, later, wrong, proxy, malformed, r1)
	p, err = OpenPlan(pts, Config{Seed: 1, Checkpoint: ckpt})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if got := p.Todo(); len(got) != 0 {
		t.Fatalf("todo = %v, want none", got)
	}
	rs := p.Result()
	if rs.Evaluated != 0 || len(rs.Records) != 2 {
		t.Fatalf("result: evaluated %d, %d records; want 0, 2", rs.Evaluated, len(rs.Records))
	}
	if rs.Records[0].LatencyMS != r0.LatencyMS {
		t.Fatal("a later copy of a digest replaced the first")
	}
	for i, rec := range rs.Records {
		if rec.Index != i || rec.Digest != DigestKey(pts[i]) {
			t.Fatalf("record %d = index %d digest %s", i, rec.Index, rec.Digest)
		}
	}
}

// writeRecordLines writes recs to path as a checkpoint, one line each.
func writeRecordLines(t *testing.T, path string, recs ...Record) {
	t.Helper()
	var data []byte
	for _, rec := range recs {
		var err error
		if data, err = AppendRecordLine(data, rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// sampledDupSpec draws six seeded-random points from a two-point space, so
// the sample repeats coordinates: two distinct digests, one of them at
// indices 0, 1, 3 and 5.
func sampledDupSpec() SweepSpec {
	return SweepSpec{Space: Space{Models: []int{4}, BSA: []bool{false}, ECPThetas: []int{0, 6}}, Random: 6, Seed: 1}
}

// TestUnits pins the sweep plan every runner shares: for every shard count,
// each distinct digest is a unit of exactly one shard, the shard union is
// the unsharded plan, every unit is its digest's first occurrence, and
// Select restricts the plan without moving indices.
func TestUnits(t *testing.T) {
	grid := testSpace().Grid()
	cases := map[string][]Point{
		"grid":          grid,
		"grid+repeats":  append(append([]Point{}, grid...), grid[0], grid[5], grid[0]),
		"sampled":       sampledDupSpec().Points(),
		"sampled-large": testSpace().Sample(40, 3),
		"backends":      Space{Models: []int{4}, Backends: []string{"bishop", "ptb", "gpu"}, ECPThetas: []int{0, 6}}.Grid(),
		"signed-zero":   signedZeroPoints(),
	}
	for name, pts := range cases {
		keys := DigestKeys(pts)
		for i, p := range pts {
			if keys[i] != DigestKey(p) {
				t.Fatalf("%s: DigestKeys[%d] = %s, DigestKey %s", name, i, keys[i], DigestKey(p))
			}
		}
		first := map[string]int{}
		for i, p := range pts {
			if _, ok := first[DigestKey(p)]; !ok {
				first[DigestKey(p)] = i
			}
		}
		all := Config{}.Units(pts)
		sel := []string{DigestKey(pts[all[len(all)-1]]), DigestKey(pts[all[0]])}
		for _, selected := range [][]string{nil, sel} {
			want := Config{Select: selected}.Units(pts)
			wantN := len(first)
			if selected != nil {
				wantN = len(selected)
			}
			if len(want) != wantN {
				t.Fatalf("%s select=%v: %d unsharded units, want %d", name, selected, len(want), wantN)
			}
			for _, n := range []int{1, 2, 3, 8} {
				owner := map[string]int{}
				var union []int
				for s := 0; s < n; s++ {
					for _, i := range (Config{Shard: s, Shards: n, Select: selected}).Units(pts) {
						key := DigestKey(pts[i])
						if prev, dup := owner[key]; dup {
							t.Fatalf("%s n=%d: digest %s is a unit of shards %d and %d", name, n, key, prev, s)
						}
						owner[key] = s
						if first[key] != i {
							t.Fatalf("%s n=%d: unit %d is not the first occurrence (%d) of %s", name, n, i, first[key], key)
						}
						if i%n != s {
							t.Fatalf("%s n=%d: unit %d planned for shard %d", name, n, i, s)
						}
						if selected != nil && !slices.Contains(selected, key) {
							t.Fatalf("%s n=%d: unselected digest %s planned", name, n, key)
						}
						union = append(union, i)
					}
				}
				slices.Sort(union)
				if !slices.Equal(union, want) {
					t.Fatalf("%s n=%d select=%v: shard union %v, unsharded units %v", name, n, selected, union, want)
				}
			}
		}
	}
}

// signedZeroPoints are two configurations that compare equal but encode
// differently (an energy of +0 and of -0), so their digests differ.
func signedZeroPoints() []Point {
	pos := Point{Model: 4, Opt: accel.DefaultOptions()}
	pos.Opt.Tech.EAnd = 0
	neg := pos
	neg.Opt.Tech.EAnd = math.Copysign(0, -1)
	return []Point{pos, neg, pos, neg}
}

// TestSignedZeroCoversEveryFloat sets each float field of accel.Options,
// found by reflection (behind the ECP pointer too), to negative zero in
// turn: DigestKeys may only memoize a configuration whose == agrees with
// its encoding.
func TestSignedZeroCoversEveryFloat(t *testing.T) {
	floats := 0
	var walk func(typ reflect.Type, index []int)
	walk = func(typ reflect.Type, index []int) {
		switch typ.Kind() {
		case reflect.Float32, reflect.Float64:
			floats++
			opt := accel.DefaultOptions()
			opt.ECP = &bundle.ECPConfig{}
			reflect.ValueOf(&opt).Elem().FieldByIndex(index).SetFloat(math.Copysign(0, -1))
			if !signedZero(opt) {
				t.Errorf("signedZero misses negative zero in accel.Options field %v", index)
			}
		case reflect.Pointer:
			walk(typ.Elem(), index)
		case reflect.Struct:
			for i := range typ.NumField() {
				walk(typ.Field(i).Type, append(slices.Clone(index), i))
			}
		}
	}
	walk(reflect.TypeOf(accel.Options{}), nil)
	if floats == 0 || signedZero(accel.DefaultOptions()) {
		t.Fatalf("walked %d float fields; default options signedZero=%v", floats, signedZero(accel.DefaultOptions()))
	}
}

// TestShardedSampledCheckpointsMatchUnsharded is the sharded half of the
// sweep contract on a sample that repeats coordinates: the shard
// checkpoints hold exactly the lines of the unsharded checkpoint, so a
// duplicate owned by shard 0 is never re-evaluated by shard 1.
func TestShardedSampledCheckpointsMatchUnsharded(t *testing.T) {
	spec := sampledDupSpec()
	points := spec.Points()
	dir := t.TempDir()
	lines := func(paths ...string) []string {
		var out []string
		for _, p := range paths {
			data, err := os.ReadFile(p)
			if err != nil {
				t.Fatal(err)
			}
			for _, line := range strings.Split(string(data), "\n") {
				if line != "" {
					out = append(out, line)
				}
			}
		}
		slices.Sort(out)
		return out
	}
	cfg := spec.Config()
	cfg.Checkpoint = filepath.Join(dir, "all.jsonl")
	if _, err := Sweep(context.Background(), points, cfg); err != nil {
		t.Fatal(err)
	}
	var shardFiles []string
	for s := 0; s < 2; s++ {
		cfg := spec.Config()
		cfg.Shard, cfg.Shards = s, 2
		cfg.Checkpoint = filepath.Join(dir, fmt.Sprintf("shard%d.jsonl", s))
		if _, err := Sweep(context.Background(), points, cfg); err != nil {
			t.Fatal(err)
		}
		shardFiles = append(shardFiles, cfg.Checkpoint)
	}
	want, got := lines(cfg.Checkpoint), lines(shardFiles...)
	if !slices.Equal(got, want) {
		t.Fatalf("shard checkpoints hold %d lines, unsharded %d:\n%s\nwant\n%s",
			len(got), len(want), strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// FuzzParseRecordLine checks the record-line codec on arbitrary input,
// read as a checkpoint file. The seeds are the golden legacy checkpoint
// (whole, line by line, and torn mid-line) and a record line of every
// backend at a low fidelity. For any input:
//   - ParseRecordLine never panics;
//   - a line it accepts re-encodes through AppendRecordLine to a line that
//     parses back to a record with the same digest and the same encoding;
//   - when every line is an accepted, newline-terminated record (a valid
//     checkpoint), LoadCheckpoint of the input cut at every byte offset
//     keeps the record of every line complete before the cut, plus at most
//     the next one (a cut that drops only the line's closing bytes).
func FuzzParseRecordLine(f *testing.F) {
	golden, err := os.ReadFile(filepath.Join("testdata", "legacy_checkpoint.jsonl"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(golden)
	for line := range bytes.Lines(golden) {
		f.Add(line)
		f.Add(line[:len(line)/2])
	}
	for _, name := range backend.Names() {
		b, err := backend.Default(name)
		if err != nil {
			f.Fatal(err)
		}
		line, err := AppendRecordLine(nil, EvaluateAt(Point{Model: 1, Backend: b}, 1, 4))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(line)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		// recs[k] is the record of line k; ends[k] the offset past it.
		var recs []Record
		var ends []int
		valid := len(data) > 0 && data[len(data)-1] == '\n'
		off := 0
		for line := range bytes.Lines(data) {
			off += len(line)
			rec, ok := ParseRecordLine(bytes.TrimRight(line, "\r\n"))
			if !ok {
				valid = false
				continue
			}
			enc, err := AppendRecordLine(nil, rec)
			if err != nil {
				t.Fatalf("accepted record does not encode: %v", err)
			}
			back, ok := ParseRecordLine(enc)
			if !ok {
				t.Fatalf("re-encoded line rejected: %s", enc)
			}
			again, err := AppendRecordLine(nil, back)
			if err != nil || back.Digest != rec.Digest || !bytes.Equal(again, enc) {
				t.Fatalf("re-encoded line does not round-trip:\n%s%s", enc, again)
			}
			recs = append(recs, rec)
			ends = append(ends, off)
		}
		if !valid {
			return
		}

		path := filepath.Join(t.TempDir(), "ck.jsonl")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		complete := len(ends)
		for cut := len(data); cut >= 0; cut-- {
			if err := os.Truncate(path, int64(cut)); err != nil {
				t.Fatal(err)
			}
			for complete > 0 && ends[complete-1] > cut {
				complete--
			}
			got, err := LoadCheckpoint(path)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) < complete || len(got) > complete+1 {
				t.Fatalf("cut at %d of %d: loaded %d records, want %d or %d", cut, len(data), len(got), complete, complete+1)
			}
			for k := range got {
				if !reflect.DeepEqual(got[k], recs[k]) {
					t.Fatalf("cut at %d of %d: record %d differs from its line", cut, len(data), k)
				}
			}
		}
	})
}
