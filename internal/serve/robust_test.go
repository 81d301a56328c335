package serve

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/dse"
)

// TestEstimateRetryAfter pins the pacing formula: backlog × mean duration,
// floored at 1s, capped at maxRetryAfter.
func TestEstimateRetryAfter(t *testing.T) {
	cases := []struct {
		queued int
		mean   time.Duration
		want   time.Duration
	}{
		{0, 0, time.Second},                      // no history: floor
		{5, 0, time.Second},                      // no history, deep queue: still floor
		{0, 400 * time.Millisecond, time.Second}, // one running job, fast sweeps: floor
		{3, 2 * time.Second, 8 * time.Second},    // (3 queued + 1 running) × 2s
		{1, 30 * time.Minute, maxRetryAfter},     // saturated: cap
	}
	for _, c := range cases {
		if got := estimateRetryAfter(c.queued, c.mean); got != c.want {
			t.Errorf("estimateRetryAfter(%d, %v) = %v, want %v", c.queued, c.mean, got, c.want)
		}
	}
}

// TestHealthzDrainingFlip pins the worker-departure signal: /healthz serves
// 200 "ok" normally and flips to 503 "draining" as soon as Close begins,
// while a parked job is still running and submissions start rejecting.
func TestHealthzDrainingFlip(t *testing.T) {
	started := make(chan string, 1)
	m := NewManager(ManagerConfig{RunFunc: blockingRunFunc(started)})
	ts := httptest.NewServer(NewServer(m).Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || string(body) != "ok\n" {
		t.Fatalf("healthz before drain: %d %q", resp.StatusCode, body)
	}

	j, _, err := m.Submit(specWithSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	<-started
	closeCtx, cancel := context.WithCancel(context.Background())
	closed := make(chan error, 1)
	go func() { closed <- m.Close(closeCtx) }()
	defer func() {
		cancel() // let Close cancel the parked job
		if err := <-closed; err != nil {
			t.Errorf("close: %v", err)
		}
	}()
	deadline := time.Now().Add(10 * time.Second)
	for !m.Draining() {
		if time.Now().After(deadline) {
			t.Fatal("manager never began draining")
		}
		time.Sleep(time.Millisecond)
	}
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || strings.TrimSpace(string(body)) != "draining" {
		t.Fatalf("healthz during drain: %d %q, want 503 draining", resp.StatusCode, body)
	}
	if s := j.Status().State; s != StateRunning {
		t.Fatalf("parked job %q during drain, want running", s)
	}

	data, _ := dse.EncodeSpec(tinySpec())
	presp, err := http.Post(ts.URL+"/v1/sweeps", "application/json", strings.NewReader(string(data)))
	if err != nil {
		t.Fatal(err)
	}
	presp.Body.Close()
	if presp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit while draining: status %d, want 503", presp.StatusCode)
	}
}

// emitRecords builds a RunFunc that streams count synthetic records (distinct
// digests, the manager's seed discipline satisfied) and finishes cleanly.
func emitRecords(count int) func(context.Context, dse.SweepSpec, RunOptions) (*RunResult, error) {
	return func(ctx context.Context, spec dse.SweepSpec, opt RunOptions) (*RunResult, error) {
		for i := 0; i < count; i++ {
			if opt.OnRecord != nil {
				opt.OnRecord(dse.Record{
					Index:  i,
					Digest: fmt.Sprintf("%016x", uint64(i)+1),
					Model:  4,
					Seed:   spec.Seed,
				})
			}
		}
		return &RunResult{}, nil
	}
}

// TestRecordsFromOffset pins ?from=N: a reconnecting client resumes the
// NDJSON stream at its record offset instead of replaying from zero, and
// malformed offsets are rejected.
func TestRecordsFromOffset(t *testing.T) {
	ts, _ := newTestServer(t, ManagerConfig{RunFunc: emitRecords(3)})
	st := submitSpec(t, ts, tinySpec())
	waitDone(t, ts, st.ID)

	full, err := http.Get(ts.URL + "/v1/sweeps/" + st.ID + "/records")
	if err != nil {
		t.Fatal(err)
	}
	allData, _ := io.ReadAll(full.Body)
	full.Body.Close()
	all := sortedLines(t, allData)
	if len(all) != 3 {
		t.Fatalf("full stream has %d records, want 3", len(all))
	}

	resumed, err := http.Get(ts.URL + "/v1/sweeps/" + st.ID + "/records?from=1")
	if err != nil {
		t.Fatal(err)
	}
	resData, _ := io.ReadAll(resumed.Body)
	resumed.Body.Close()
	res := sortedLines(t, resData)
	if len(res) != 2 {
		t.Fatalf("?from=1 stream has %d records, want 2", len(res))
	}
	for _, line := range res {
		if !contains(all, line) {
			t.Fatalf("resumed line not in full stream: %s", line)
		}
	}
	if contains(res, mustLine(t, allData, 0)) {
		t.Fatal("?from=1 replayed record 0")
	}

	// An offset past the log of a finished job drains to an empty 200.
	past, err := http.Get(ts.URL + "/v1/sweeps/" + st.ID + "/records?from=99")
	if err != nil {
		t.Fatal(err)
	}
	pastData, _ := io.ReadAll(past.Body)
	past.Body.Close()
	if past.StatusCode != http.StatusOK || len(sortedLines(t, pastData)) != 0 {
		t.Fatalf("?from=99: status %d, %d records", past.StatusCode, len(sortedLines(t, pastData)))
	}

	for _, bad := range []string{"-1", "x", "1.5"} {
		resp, err := http.Get(ts.URL + "/v1/sweeps/" + st.ID + "/records?from=" + bad)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("?from=%s status %d, want 400", bad, resp.StatusCode)
		}
	}
}

func contains(lines []string, want string) bool {
	for _, l := range lines {
		if l == want {
			return true
		}
	}
	return false
}

// mustLine returns the i-th line of the NDJSON document in arrival order.
func mustLine(t *testing.T, data []byte, i int) string {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if i >= len(lines) {
		t.Fatalf("document has %d lines, want index %d", len(lines), i)
	}
	return lines[i]
}

// TestResubmitRevivesTerminalJob pins the fleet-recovery contract: a spec
// whose job failed (or was canceled by a dropped stream) re-enters the queue
// on resubmission as a fresh run under the same id, with Runs incremented —
// instead of answering the dead job forever.
func TestResubmitRevivesTerminalJob(t *testing.T) {
	var mu sync.Mutex
	calls := 0
	run := func(ctx context.Context, spec dse.SweepSpec, opt RunOptions) (*RunResult, error) {
		mu.Lock()
		calls++
		n := calls
		mu.Unlock()
		if n == 1 {
			return nil, fmt.Errorf("injected first-run failure")
		}
		return emitRecords(2)(ctx, spec, opt)
	}
	m := NewManager(ManagerConfig{RunFunc: run})
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		m.Close(ctx)
	})

	spec := tinySpec()
	j1, created, err := m.Submit(spec)
	if err != nil || !created {
		t.Fatalf("first submit: %v created=%v", err, created)
	}
	waitState(t, j1, StateFailed)
	if j1.Status().Runs != 1 {
		t.Fatalf("first run Runs=%d, want 1", j1.Status().Runs)
	}

	// While terminal-failed, resubmission revives rather than echoes.
	j2, created, err := m.Submit(spec)
	if err != nil || !created {
		t.Fatalf("revival submit: %v created=%v", err, created)
	}
	if j2 == j1 {
		t.Fatal("revival returned the dead job object")
	}
	if j2.ID != j1.ID {
		t.Fatalf("revived job id %s != %s", j2.ID, j1.ID)
	}
	waitState(t, j2, StateDone)
	st := j2.Status()
	if st.Runs != 2 || st.Records != 2 {
		t.Fatalf("revived run: runs=%d records=%d, want 2/2", st.Runs, st.Records)
	}

	// A done job is NOT revived: idempotent answer, run count unchanged.
	j3, created, err := m.Submit(spec)
	if err != nil || created || j3 != j2 {
		t.Fatalf("resubmit after success: %v created=%v same=%v", err, created, j3 == j2)
	}
	mu.Lock()
	defer mu.Unlock()
	if calls != 2 {
		t.Fatalf("run func called %d times, want 2", calls)
	}
}

func waitState(t *testing.T, j *Job, want JobState) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if s := j.Status().State; s == want {
			return
		} else if time.Now().After(deadline) {
			t.Fatalf("job state %q, want %q", s, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
