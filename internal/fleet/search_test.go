package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/dse"
	"repro/internal/serve"
)

// TestRetryAfterParsing pins both legal spellings of Retry-After (RFC 9110:
// delta-seconds or an HTTP-date) plus the defensive clamps: negative or
// unparseable values fall back to the caller's backoff delay, absurd values
// clamp to the retry policy's ceiling.
func TestRetryAfterParsing(t *testing.T) {
	const fall, max = 50 * time.Millisecond, 10 * time.Second
	mk := func(v string) *http.Response {
		resp := &http.Response{Header: http.Header{}}
		if v != "" {
			resp.Header.Set("Retry-After", v)
		}
		return resp
	}
	for name, tc := range map[string]struct {
		header   string
		min, max time.Duration
	}{
		"absent":          {"", fall, fall},
		"delta seconds":   {"3", 3 * time.Second, 3 * time.Second},
		"zero delta":      {"0", 0, 0},
		"negative delta":  {"-5", fall, fall},
		"absurd delta":    {"86400", max, max},
		"http date":       {time.Now().Add(5 * time.Second).UTC().Format(http.TimeFormat), 3 * time.Second, 5 * time.Second},
		"past http date":  {time.Now().Add(-time.Minute).UTC().Format(http.TimeFormat), fall, fall},
		"far http date":   {time.Now().Add(time.Hour).UTC().Format(http.TimeFormat), max, max},
		"garbage":         {"soon", fall, fall},
		"garbage numeric": {"3.5s", fall, fall},
	} {
		got := retryAfter(mk(tc.header), fall, max)
		if got < tc.min || got > tc.max {
			t.Errorf("%s: retryAfter(%q) = %v, want in [%v, %v]", name, tc.header, got, tc.min, tc.max)
		}
	}
}

// TestFleetSearch drives a successive-halving search across two real
// workers: the ladder must prune 12 candidates to 6 full-fidelity
// survivors, the survivor records must match an unsharded serve.Run of the
// final rung's spec, the one checkpoint every rung shares must be
// byte-identical to a local serve.RunSearch's, and re-running the
// identical command, or only its first rung, must resume from it with
// zero re-evaluation and leave its bytes alone.
func TestFleetSearch(t *testing.T) {
	spec := dse.SearchSpec{Space: fleetSpec().Space, Rungs: []int{8, 1}, Eta: 2}
	var workers []string
	for i := 0; i < 2; i++ {
		workers = append(workers, newWorkerServer(t, serve.ManagerConfig{}).URL)
	}
	dir := t.TempDir()
	ck := filepath.Join(dir, "search.jsonl")
	cfg := Config{
		Workers:    workers,
		Checkpoint: ck,
		LeaseTTL:   10 * time.Second,
		Worker:     fleetWorkerConfig(),
		Logf:       t.Logf,
	}
	sr, err := RunSearch(context.Background(), spec, cfg)
	if err != nil {
		t.Fatalf("fleet search: %v", err)
	}
	if len(sr.Rungs) != 2 || sr.Rungs[0].Candidates != 12 || sr.Rungs[1].Candidates != 6 {
		t.Fatalf("rung progression %+v, want 12 -> 6", sr.Rungs)
	}
	if sr.Final == nil || len(sr.Final.Records) != 6 {
		t.Fatalf("final set %+v, want 6 survivor records", sr.Final)
	}

	// The survivors' records must be exactly what an unsharded local run of
	// the final rung produces.
	ref, err := serve.Run(context.Background(), spec.RungSpec(1, sr.Survivors), serve.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(ref.Set.Records) != len(sr.Final.Records) {
		t.Fatalf("reference has %d records, fleet search %d", len(ref.Set.Records), len(sr.Final.Records))
	}
	for i := range ref.Set.Records {
		a, _ := json.Marshal(ref.Set.Records[i])
		b, _ := json.Marshal(sr.Final.Records[i])
		if string(a) != string(b) {
			t.Fatalf("survivor %d differs from the unsharded run:\n%s\n%s", i, a, b)
		}
	}

	// Every rung shares the one checkpoint, which ends holding exactly the
	// bytes a local search writes to a fresh file.
	if files, _ := filepath.Glob(filepath.Join(dir, "*")); len(files) != 1 || files[0] != ck {
		t.Fatalf("search left files %v, want only %s", files, ck)
	}
	local := spec
	local.Checkpoint = filepath.Join(t.TempDir(), "local.jsonl")
	if _, err := serve.RunSearch(context.Background(), local, serve.RunOptions{}); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(local.Checkpoint)
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(ck)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("fleet search checkpoint differs from the local search's: %d vs %d bytes (%d vs %d lines)",
			len(got), len(want), bytes.Count(got, []byte("\n")), bytes.Count(want, []byte("\n")))
	}

	// The identical command resumes from that checkpoint and evaluates
	// nothing anywhere in the ladder.
	again, err := RunSearch(context.Background(), spec, cfg)
	if err != nil {
		t.Fatalf("fleet search resume: %v", err)
	}
	if again.Evaluated != 0 {
		t.Fatalf("resume re-evaluated %d points, want 0", again.Evaluated)
	}
	if got, err := os.ReadFile(ck); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("resumed search changed the checkpoint (err %v)", err)
	}
	if len(again.Survivors) != len(sr.Survivors) {
		t.Fatal("resumed survivor set drifted")
	}
	for i := range sr.Survivors {
		if again.Survivors[i] != sr.Survivors[i] {
			t.Fatal("resumed survivor set drifted")
		}
	}

	// Rerunning the first rung alone finds every record in the checkpoint,
	// merges nothing, and so writes nothing: its block stays ahead of the
	// final rung's.
	rung, err := Run(context.Background(), spec.RungSpec(0, nil), cfg)
	if err != nil {
		t.Fatalf("rung rerun: %v", err)
	}
	if rung.Fresh != 0 || rung.Resumed != len(spec.Points()) {
		t.Fatalf("rung rerun: fresh=%d resumed=%d, want 0/%d", rung.Fresh, rung.Resumed, len(spec.Points()))
	}
	if got, err := os.ReadFile(ck); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("rung rerun that merged nothing changed the checkpoint (err %v)", err)
	}
}

// TestFleetSearchRequiresCheckpoint pins the guard: promotion state lives in
// the checkpoint, so a checkpoint-less fleet search is refused.
func TestFleetSearchRequiresCheckpoint(t *testing.T) {
	if _, err := RunSearch(context.Background(),
		dse.SearchSpec{Space: fleetSpec().Space}, Config{Workers: []string{"http://127.0.0.1:1"}}); err == nil {
		t.Fatal("checkpoint-less fleet search must be rejected")
	}
}
