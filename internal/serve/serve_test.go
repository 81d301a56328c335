package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/dse"
	"repro/internal/hw"
)

// tinySpec is the smallest cross-feature sweep worth serving: 2 bishop
// points (ECP on/off) on the fastest Table 2 model.
func tinySpec() dse.SweepSpec {
	return dse.SweepSpec{Space: dse.Space{Models: []int{4}, ECPThetas: []int{0, 10}}, Seed: 1}
}

// sortedLines canonicalizes an NDJSON document as a sorted line multiset.
func sortedLines(t *testing.T, data []byte) []string {
	t.Helper()
	var lines []string
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		if len(sc.Bytes()) > 0 {
			lines = append(lines, sc.Text())
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("scan: %v", err)
	}
	sort.Strings(lines)
	return lines
}

func marshalSortedRecords(t *testing.T, recs []dse.Record) []string {
	t.Helper()
	var b bytes.Buffer
	for _, r := range recs {
		data, err := json.Marshal(r)
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		b.Write(data)
		b.WriteByte('\n')
	}
	return sortedLines(t, b.Bytes())
}

func newTestServer(t *testing.T, cfg ManagerConfig) (*httptest.Server, *Manager) {
	t.Helper()
	m := NewManager(cfg)
	ts := httptest.NewServer(NewServer(m).Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := m.Close(ctx); err != nil {
			t.Errorf("manager close: %v", err)
		}
	})
	return ts, m
}

func submitSpec(t *testing.T, ts *httptest.Server, spec dse.SweepSpec) JobStatus {
	t.Helper()
	data, err := dse.EncodeSpec(spec)
	if err != nil {
		t.Fatalf("encode spec: %v", err)
	}
	resp, err := http.Post(ts.URL+"/v1/sweeps", "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("submit: status %d: %s", resp.StatusCode, body)
	}
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("submit: decode status: %v", err)
	}
	return st
}

// TestEndToEndStreamMatchesDirectSweep is the acceptance pin: the NDJSON
// stream of a submitted spec is byte-identical (as a record multiset) to a
// direct dse.Sweep of the same spec.
func TestEndToEndStreamMatchesDirectSweep(t *testing.T) {
	ts, _ := newTestServer(t, ManagerConfig{})
	spec := tinySpec()
	st := submitSpec(t, ts, spec)
	if st.ID != spec.Normalized().ID() {
		t.Fatalf("job id %s != spec digest %s", st.ID, spec.Normalized().ID())
	}

	resp, err := http.Get(ts.URL + "/v1/sweeps/" + st.ID + "/records")
	if err != nil {
		t.Fatalf("stream: %v", err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("stream content type %q", ct)
	}
	streamed, err := io.ReadAll(resp.Body) // blocks until the job finishes
	if err != nil {
		t.Fatalf("stream read: %v", err)
	}

	direct, err := dse.Sweep(context.Background(), spec.Points(), spec.Config())
	if err != nil {
		t.Fatalf("direct sweep: %v", err)
	}
	got, want := sortedLines(t, streamed), marshalSortedRecords(t, direct.Records)
	if len(got) != len(want) {
		t.Fatalf("streamed %d records, direct sweep has %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("record %d differs:\n stream %s\n direct %s", i, got[i], want[i])
		}
	}
	// Every streamed line must re-decode strictly as a checkpoint record.
	for _, line := range got {
		var r dse.Record
		if err := hw.DecodeStrict([]byte(line), &r); err != nil {
			t.Fatalf("streamed line is not a strict checkpoint record: %v", err)
		}
		if !r.Valid() {
			t.Fatal("streamed record invalid")
		}
	}

	// The frontier endpoint serves a well-formed FrontierJSON over the records.
	fresp, err := http.Get(ts.URL + "/v1/sweeps/" + st.ID + "/frontier")
	if err != nil {
		t.Fatalf("frontier: %v", err)
	}
	defer fresp.Body.Close()
	var fj dse.FrontierJSON
	if err := json.NewDecoder(fresp.Body).Decode(&fj); err != nil {
		t.Fatalf("frontier decode: %v", err)
	}
	if fj.Evaluated != len(want) || len(fj.Points) == 0 {
		t.Fatalf("frontier over %d records with %d points", fj.Evaluated, len(fj.Points))
	}
}

// TestSubmitIdempotent pins digest-keyed submission: the same spec twice is
// one job (202 then 200), and a different spelling of the same sweep (the
// defaults written out) maps to the same job id.
func TestSubmitIdempotent(t *testing.T) {
	ts, _ := newTestServer(t, ManagerConfig{})
	spec := tinySpec()
	data, _ := dse.EncodeSpec(spec)
	resp, err := http.Post(ts.URL+"/v1/sweeps", "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit status %d, want 202", resp.StatusCode)
	}
	resp, err = http.Post(ts.URL+"/v1/sweeps", "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	var st JobStatus
	json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("resubmit status %d, want 200", resp.StatusCode)
	}
	if st.ID != spec.Normalized().ID() {
		t.Fatalf("resubmit returned job %s", st.ID)
	}
}

func TestSubmitRejectsMalformedSpec(t *testing.T) {
	ts, _ := newTestServer(t, ManagerConfig{})
	for _, bad := range []string{
		`{"space":{"modelz":[3]}}`,
		`not json`,
		`{"space":{"models":[99]}}`,
	} {
		resp, err := http.Post(ts.URL+"/v1/sweeps", "application/json", strings.NewReader(bad))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("submit(%s) status %d, want 400", bad, resp.StatusCode)
		}
	}
}

// blockingRunFunc parks every job until its context is canceled, streaming
// nothing — the controllable stand-in for a long sweep.
func blockingRunFunc(started chan<- string) func(context.Context, dse.SweepSpec, RunOptions) (*RunResult, error) {
	return func(ctx context.Context, spec dse.SweepSpec, opt RunOptions) (*RunResult, error) {
		if started != nil {
			started <- spec.ID()
		}
		<-ctx.Done()
		return nil, ctx.Err()
	}
}

func specWithSeed(seed uint64) dse.SweepSpec {
	s := tinySpec()
	s.Seed = seed
	return s
}

// TestQueueFull429 pins admission control: with one worker parked and a
// queue of one, the third distinct spec is rejected with 429 + Retry-After.
func TestQueueFull429(t *testing.T) {
	started := make(chan string, 1)
	ts, m := newTestServer(t, ManagerConfig{
		QueueDepth: 1, Workers: 1, RunFunc: blockingRunFunc(started),
	})
	st1 := submitSpec(t, ts, specWithSeed(1)) // occupies the worker
	<-started
	submitSpec(t, ts, specWithSeed(2)) // occupies the queue slot

	data, _ := dse.EncodeSpec(specWithSeed(3))
	resp, err := http.Post(ts.URL+"/v1/sweeps", "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-admission status %d, want 429 (body %s)", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	// Resubmitting an already-admitted spec is NOT a new admission: still 200.
	data, _ = dse.EncodeSpec(specWithSeed(1))
	resp, err = http.Post(ts.URL+"/v1/sweeps", "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("known-spec resubmit during saturation: status %d, want 200", resp.StatusCode)
	}
	// Unpark the blocked jobs so the cleanup drain is immediate.
	_ = st1
	for _, s := range []dse.SweepSpec{specWithSeed(1), specWithSeed(2)} {
		if j, ok := m.Get(s.Normalized().ID()); ok {
			j.Cancel()
		}
	}
}

// TestStreamDisconnectCancelsSweep pins the watcher contract: a mid-stream
// client disconnect cancels the running sweep, the job lands in state
// "canceled", and no goroutine is leaked.
func TestStreamDisconnectCancelsSweep(t *testing.T) {
	started := make(chan string, 1)
	emit := make(chan struct{})
	run := func(ctx context.Context, spec dse.SweepSpec, opt RunOptions) (*RunResult, error) {
		started <- spec.ID()
		rec := dse.Record{Digest: "0000000000000001", Model: 4, Seed: spec.Seed}
		<-emit
		if opt.OnRecord != nil {
			opt.OnRecord(rec)
		}
		<-ctx.Done() // park until the disconnect cancels us
		return nil, ctx.Err()
	}
	ts, m := newTestServer(t, ManagerConfig{RunFunc: run})

	before := runtime.NumGoroutine()
	st := submitSpec(t, ts, tinySpec())
	<-started

	resp, err := http.Get(ts.URL + "/v1/sweeps/" + st.ID + "/records")
	if err != nil {
		t.Fatalf("stream: %v", err)
	}
	close(emit) // let one record flow so the stream is mid-flight
	br := bufio.NewReader(resp.Body)
	if _, err := br.ReadString('\n'); err != nil {
		t.Fatalf("read first record: %v", err)
	}
	resp.Body.Close() // client walks away mid-stream

	j, ok := m.Get(st.ID)
	if !ok {
		t.Fatal("job vanished")
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if s := j.Status(); s.State == StateCanceled {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job state %q, want canceled after stream disconnect", j.Status().State)
		}
		time.Sleep(5 * time.Millisecond)
	}
	// The worker must be free again: a new submission runs immediately.
	st2 := submitSpec(t, ts, specWithSeed(7))
	select {
	case <-started:
	case <-time.After(5 * time.Second):
		t.Fatal("worker not reclaimed after disconnect-cancel")
	}
	if j2, _ := m.Get(st2.ID); j2 != nil {
		j2.Cancel()
	}
	// Goroutine count settles back to the baseline (plus server slack).
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before+4 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
}

// TestStreamSurvivesEarlyDisconnectOfOneWatcher pins that only the *last*
// watcher cancels: with two streams attached, one leaving keeps the sweep
// running.
func TestStreamSurvivesEarlyDisconnectOfOneWatcher(t *testing.T) {
	started := make(chan string, 1)
	ts, m := newTestServer(t, ManagerConfig{RunFunc: blockingRunFunc(started)})
	st := submitSpec(t, ts, tinySpec())
	<-started
	r1, err := http.Get(ts.URL + "/v1/sweeps/" + st.ID + "/records")
	if err != nil {
		t.Fatal(err)
	}
	r2, err := http.Get(ts.URL + "/v1/sweeps/" + st.ID + "/records")
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Body.Close()
	r1.Body.Close()
	time.Sleep(50 * time.Millisecond)
	j, _ := m.Get(st.ID)
	if s := j.Status().State; s != StateRunning {
		t.Fatalf("job state %q after one of two watchers left, want running", s)
	}
	j.Cancel()
}

// TestResultCacheHitMiss pins the cache counters end to end: a cold run
// misses every point and publishes them; an identical warm run adopts every
// record with zero evaluations; a different seed shares nothing.
func TestResultCacheHitMiss(t *testing.T) {
	cache := &Cache{Dir: t.TempDir()}
	spec := tinySpec()
	points := len(spec.Points())

	cold, err := Run(context.Background(), spec, RunOptions{Cache: cache})
	if err != nil {
		t.Fatalf("cold run: %v", err)
	}
	if cold.CacheHits != 0 || cold.CacheMisses != points || cold.Set.Evaluated != points {
		t.Fatalf("cold run: hits=%d misses=%d evaluated=%d, want 0/%d/%d",
			cold.CacheHits, cold.CacheMisses, cold.Set.Evaluated, points, points)
	}

	warm, err := Run(context.Background(), spec, RunOptions{Cache: cache})
	if err != nil {
		t.Fatalf("warm run: %v", err)
	}
	if warm.CacheHits != points || warm.CacheMisses != 0 || warm.Set.Evaluated != 0 {
		t.Fatalf("warm run: hits=%d misses=%d evaluated=%d, want %d/0/0",
			warm.CacheHits, warm.CacheMisses, warm.Set.Evaluated, points)
	}
	if got, want := marshalSortedRecords(t, warm.Set.Records), marshalSortedRecords(t, cold.Set.Records); !equalLines(got, want) {
		t.Fatal("cache-served records differ from cold records")
	}

	other := spec
	other.Seed = 2
	cross, err := Run(context.Background(), other, RunOptions{Cache: cache})
	if err != nil {
		t.Fatalf("cross-seed run: %v", err)
	}
	if cross.CacheHits != 0 || cross.Set.Evaluated != points {
		t.Fatalf("seed-2 run reused seed-1 cache entries: hits=%d evaluated=%d", cross.CacheHits, cross.Set.Evaluated)
	}
}

func equalLines(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestCacheRejectsCorruptEntries: a torn or mislabeled line that supersedes
// an entry is a miss, never a wrong record.
func TestCacheRejectsCorruptEntries(t *testing.T) {
	cache := &Cache{Dir: t.TempDir()}
	spec := tinySpec()
	if _, err := Run(context.Background(), spec, RunOptions{Cache: cache}); err != nil {
		t.Fatal(err)
	}
	p := spec.Points()[0]
	key := fmt.Sprintf("%016x", p.Digest())
	if _, ok := cache.LoadAt(key, 1, 0); !ok {
		t.Fatal("expected cache hit before corruption")
	}
	// Each corruption is looked up by a Cache that reads the log afresh, as
	// a restarted daemon would: the one that indexed the good line may keep
	// serving it, and that is a valid record.
	appendLog(t, cache, "\n"+key+` 1 0 {"index":0`+"\n") // torn write
	if _, ok := (&Cache{Dir: cache.Dir}).LoadAt(key, 1, 0); ok {
		t.Fatal("corrupt cache entry served")
	}
	// A record filed under another point's key is rejected too.
	other, ok := cache.LoadAt(fmt.Sprintf("%016x", spec.Points()[1].Digest()), 1, 0)
	if !ok {
		t.Fatal("expected a cache hit for the second point")
	}
	line, err := dse.AppendRecordLine([]byte("\n"+key+" 1 0 "), other)
	if err != nil {
		t.Fatal(err)
	}
	appendLog(t, cache, string(line))
	if _, ok := (&Cache{Dir: cache.Dir}).LoadAt(key, 1, 0); ok {
		t.Fatal("mislabeled cache entry served")
	}
}

// appendLog appends raw bytes to the cache's log, as a foreign writer would.
func appendLog(t *testing.T, c *Cache, s string) {
	t.Helper()
	f, err := os.OpenFile(filepath.Join(c.Dir, logName), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(s); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestDaemonRestartServesFromCache simulates a daemon restart: a
// fresh manager over the same cache directory completes the same spec with
// zero evaluations.
func TestDaemonRestartServesFromCache(t *testing.T) {
	cacheDir := t.TempDir()
	spec := tinySpec()
	points := len(spec.Points())

	ts1, _ := newTestServer(t, ManagerConfig{Cache: &Cache{Dir: cacheDir}})
	st := submitSpec(t, ts1, spec)
	waitDone(t, ts1, st.ID)
	ts1.Close()

	ts2, _ := newTestServer(t, ManagerConfig{Cache: &Cache{Dir: cacheDir}})
	st2 := submitSpec(t, ts2, spec)
	final := waitDone(t, ts2, st2.ID)
	if final.Evaluated != 0 || final.CacheHits != points {
		t.Fatalf("restart run: evaluated=%d cache_hits=%d, want 0/%d", final.Evaluated, final.CacheHits, points)
	}
	if final.Records != points {
		t.Fatalf("restart run served %d records, want %d", final.Records, points)
	}
}

func waitDone(t *testing.T, ts *httptest.Server, id string) JobStatus {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		resp, err := http.Get(ts.URL + "/v1/sweeps/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var st JobStatus
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if JobState(st.State).terminal() {
			if st.State != StateDone {
				t.Fatalf("job %s finished %q: %s", id, st.State, st.Error)
			}
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %q", id, st.State)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestEvaluateEndpoint pins the single-point path: a strict request, a
// record identical to dse.Evaluate, and a cache hit on repeat.
func TestEvaluateEndpoint(t *testing.T) {
	ts, _ := newTestServer(t, ManagerConfig{Cache: &Cache{Dir: t.TempDir()}})
	body := `{"backend":"gpu","model":4}`
	resp, err := http.Post(ts.URL+"/v1/evaluate", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		t.Fatalf("evaluate status %d: %s", resp.StatusCode, b)
	}
	if got := resp.Header.Get("X-Result-Cache"); got != "miss" {
		t.Errorf("first evaluate X-Result-Cache %q, want miss", got)
	}
	var rec dse.Record
	err = json.NewDecoder(resp.Body).Decode(&rec)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if rec.BackendName() != "gpu" || rec.Model != 4 || rec.Seed != 1 {
		t.Fatalf("evaluate record %+v", rec)
	}
	want := dse.Evaluate(rec.Point(), 1)
	wb, _ := json.Marshal(want)
	rec.Index = want.Index // index is sweep-positional, not part of the contract
	gb, _ := json.Marshal(rec)
	if !bytes.Equal(gb, wb) {
		t.Fatalf("evaluate record differs from dse.Evaluate:\n %s\n %s", gb, wb)
	}

	resp, err = http.Post(ts.URL+"/v1/evaluate", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if got := resp.Header.Get("X-Result-Cache"); got != "hit" {
		t.Errorf("second evaluate X-Result-Cache %q, want hit", got)
	}

	for _, bad := range []string{
		`{"model":99}`, `{"model":4,"backend":"nope"}`,
		`{"model":4,"bogus":1}`, `{"model":4,"backend":"gpu","options":{"Bogus":2}}`,
	} {
		resp, err := http.Post(ts.URL+"/v1/evaluate", "application/json", strings.NewReader(bad))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("evaluate(%s) status %d, want 400", bad, resp.StatusCode)
		}
	}
}

// TestEvaluateRejectsInvalidShapes pins that bishop options whose bundle
// shape or ECP shape the simulator cannot run get a 400 naming the field,
// not a handler panic that drops the connection.
func TestEvaluateRejectsInvalidShapes(t *testing.T) {
	ts, _ := newTestServer(t, ManagerConfig{})
	for body, field := range map[string]string{
		`{"model":4,"options":{"Shape":{"BSt":-1,"BSn":2}}}`:                                   "Options.Shape",
		`{"model":4,"options":{"Shape":{"BSt":0,"BSn":3}}}`:                                    "Options.Shape",
		`{"model":4,"options":{"ECP":{"Shape":{"BSt":0,"BSn":0},"ThetaQ":2,"ThetaK":2}}}`:      "Options.ECP.Shape",
		`{"model":4,"options":{"Shape":{"BSt":4,"BSn":2},"ECP":{"Shape":{"BSt":4,"BSn":-2}}}}`: "Options.ECP.Shape",
	} {
		resp, err := http.Post(ts.URL+"/v1/evaluate", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("evaluate(%s): %v", body, err)
		}
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(msg), field) {
			t.Errorf("evaluate(%s): status %d, body %q; want 400 naming %s", body, resp.StatusCode, msg, field)
		}
	}
}

// TestBackendsEndpoint pins GET /v1/backends against the registry.
func TestBackendsEndpoint(t *testing.T) {
	ts, _ := newTestServer(t, ManagerConfig{})
	resp, err := http.Get(ts.URL + "/v1/backends")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var ds []struct {
		Name    string `json:"name"`
		Options []struct {
			Name string `json:"name"`
			Type string `json:"type"`
		} `json:"options"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&ds); err != nil {
		t.Fatal(err)
	}
	names := map[string]int{}
	for _, d := range ds {
		names[d.Name] = len(d.Options)
	}
	for _, want := range []string{"bishop", "ptb", "gpu"} {
		if names[want] == 0 {
			t.Errorf("backend %s missing or schema-less in /v1/backends: %v", want, names)
		}
	}
}

func TestUnknownJob404(t *testing.T) {
	ts, _ := newTestServer(t, ManagerConfig{})
	for _, path := range []string{"/v1/sweeps/ffff", "/v1/sweeps/ffff/records", "/v1/sweeps/ffff/frontier"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s status %d, want 404", path, resp.StatusCode)
		}
	}
}

// TestManagerDrain pins graceful shutdown: submissions after Close are
// rejected, and Close cancels a parked job once the drain context expires.
func TestManagerDrain(t *testing.T) {
	started := make(chan string, 1)
	m := NewManager(ManagerConfig{RunFunc: blockingRunFunc(started)})
	j, created, err := m.Submit(tinySpec())
	if err != nil || !created {
		t.Fatalf("submit: %v created=%v", err, created)
	}
	<-started
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	if err := m.Close(ctx); err != nil {
		t.Fatalf("close: %v", err)
	}
	if s := j.Status().State; s != StateCanceled {
		t.Fatalf("drained job state %q, want canceled", s)
	}
	if _, _, err := m.Submit(specWithSeed(5)); err == nil {
		t.Fatal("submit after close succeeded")
	}
}
