package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/http/httputil"
	"net/url"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"repro/internal/bundle"
	"repro/internal/dse"
	"repro/internal/fleet"
	"repro/internal/fleet/faultproxy"
	"repro/internal/serve"
)

// daemonEnv makes the test binary run bishopd's main instead of the tests.
// Only startDaemon sets it, in the child's environment.
const daemonEnv = "BISHOPD_TEST_RUN_DAEMON"

func TestMain(m *testing.M) {
	if os.Getenv(daemonEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// lockedBuffer collects a child's output from several goroutines.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// daemon is a bishopd process: the test binary re-executed as the daemon.
type daemon struct {
	cmd     *exec.Cmd
	addr    string       // host:port from the "listening on" line
	out     lockedBuffer // everything printed after that line, stderr included
	exited  chan struct{}
	waitErr error // valid once exited is closed
}

// startDaemon starts bishopd on a free loopback port with the given extra
// flags and returns once it has announced its address. The process is
// killed at test cleanup if it is still running.
func startDaemon(t *testing.T, args ...string) *daemon {
	t.Helper()
	d := &daemon{exited: make(chan struct{})}
	d.cmd = exec.Command(os.Args[0], append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	d.cmd.Env = append(os.Environ(), daemonEnv+"=1")
	d.cmd.Stderr = &d.out
	stdout, err := d.cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := d.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		d.cmd.Process.Kill()
		<-d.exited
	})
	r := bufio.NewReader(stdout)
	line, err := r.ReadString('\n')
	go func() {
		io.Copy(&d.out, r)
		d.waitErr = d.cmd.Wait()
		close(d.exited)
	}()
	rest, ok := strings.CutPrefix(line, "bishopd: listening on http://")
	if err != nil || !ok {
		d.cmd.Process.Kill()
		<-d.exited
		t.Fatalf("bishopd did not start: %q %v\n%s", line, err, d.out.String())
	}
	d.addr, _, _ = strings.Cut(rest, " ")
	return d
}

// wait returns the process's exit error once it has exited.
func (d *daemon) wait(t *testing.T) error {
	t.Helper()
	select {
	case <-d.exited:
		return d.waitErr
	case <-time.After(2 * time.Minute):
		t.Fatalf("bishopd still running:\n%s", d.out.String())
		return nil
	}
}

func (d *daemon) url(path string) string { return "http://" + d.addr + path }

func (d *daemon) submit(t *testing.T, spec dse.SweepSpec) serve.JobStatus {
	t.Helper()
	data, err := dse.EncodeSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(d.url("/v1/sweeps"), "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st serve.JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil || st.ID == "" {
		t.Fatalf("submit: status %d, %v", resp.StatusCode, err)
	}
	return st
}

func (d *daemon) status(t *testing.T, id string) serve.JobStatus {
	t.Helper()
	resp, err := http.Get(d.url("/v1/sweeps/" + id))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st serve.JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// poll calls cond every few milliseconds until it reports true, failing the
// test after a minute.
func poll(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(time.Minute)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// recordLines marshals records the way checkpoints and streams write them,
// sorted.
func recordLines(t *testing.T, recs []dse.Record) []string {
	t.Helper()
	var lines []string
	for _, r := range recs {
		line, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		lines = append(lines, string(line))
	}
	slices.Sort(lines)
	return lines
}

// TestDaemonStreamDrainAndRestart drives one bishopd process through the
// serving contracts: its NDJSON stream equals serve.Run's records for the
// same spec; on SIGTERM with a sweep running it reports 503 "draining",
// finishes the sweep, prints "drained" and exits 0; and a restart on the
// same result cache serves the resubmitted spec without evaluating a point.
func TestDaemonStreamDrainAndRestart(t *testing.T) {
	if testing.Short() {
		t.Skip("starts bishopd processes")
	}
	cache := t.TempDir()
	d := startDaemon(t, "-cache-dir", cache)

	small := dse.SweepSpec{Space: dse.Space{
		Models: []int{4}, Backends: []string{"bishop", "ptb", "gpu"}, ECPThetas: []int{0, 10},
	}}
	st := d.submit(t, small)
	resp, err := http.Get(d.url("/v1/sweeps/" + st.ID + "/records"))
	if err != nil {
		t.Fatal(err)
	}
	streamed, err := io.ReadAll(resp.Body) // ends when the job does
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	ref, err := serve.Run(context.Background(), small, serve.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	got := strings.Split(strings.TrimSpace(string(streamed)), "\n")
	slices.Sort(got)
	if want := recordLines(t, ref.Set.Records); !slices.Equal(got, want) {
		t.Fatalf("daemon stream differs from serve.Run:\n got %q\nwant %q", got, want)
	}

	// One evaluator over 96 model-5 points keeps the sweep running for
	// about a second and a half, long enough to signal it mid-flight.
	big := dse.SweepSpec{Space: dse.Space{
		Models: []int{5}, BSA: []bool{false, true}, Stratify: []bool{true, false},
		Shapes:    []bundle.Shape{{BSt: 4, BSn: 2}, {BSt: 2, BSn: 2}, {BSt: 1, BSn: 2}, {BSt: 4, BSn: 4}},
		ECPThetas: []int{0, 2, 4, 6, 8, 10},
	}, Jobs: 1}
	points := len(big.Points())
	st = d.submit(t, big)
	poll(t, "the sweep to start", func() bool {
		s := d.status(t, st.ID)
		return s.State == serve.StateRunning && s.Records > 0
	})
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	poll(t, "/healthz to report draining", func() bool {
		resp, err := http.Get(d.url("/healthz"))
		if err != nil {
			t.Fatalf("healthz after SIGTERM: %v\n%s", err, d.out.String())
		}
		resp.Body.Close()
		return resp.StatusCode == http.StatusServiceUnavailable
	})
	if s := d.status(t, st.ID); s.State != serve.StateRunning || s.Records >= points {
		t.Fatalf("sweep %s with %d of %d records while draining; the test needs it running", s.State, s.Records, points)
	}
	if err := d.wait(t); err != nil {
		t.Fatalf("drained bishopd exited with %v:\n%s", err, d.out.String())
	}
	if !strings.Contains(d.out.String(), "bishopd: drained") {
		t.Fatalf("no drain report:\n%s", d.out.String())
	}

	d = startDaemon(t, "-cache-dir", cache)
	st = d.submit(t, big)
	poll(t, "the resubmitted sweep", func() bool { return d.status(t, st.ID).State == serve.StateDone })
	if s := d.status(t, st.ID); s.Evaluated != 0 || s.CacheHits != points {
		t.Fatalf("restarted bishopd evaluated %d points with %d cache hits, want 0 and %d", s.Evaluated, s.CacheHits, points)
	}
}

// TestFleetSurvivesWorkerSIGKILL runs a sweep across three bishopd
// processes, two of them behind fault-injecting proxies, and SIGKILLs the
// third as the coordinator first asks it for a shard's records: its shard
// is released to the survivors, and the merged checkpoint is
// byte-identical to a single-evaluator serve.Run checkpoint of the same
// spec.
func TestFleetSurvivesWorkerSIGKILL(t *testing.T) {
	if testing.Short() {
		t.Skip("starts bishopd processes")
	}
	spec := dse.SweepSpec{Space: dse.Space{
		Models: []int{4}, BSA: []bool{false, true},
		Shapes:    []bundle.Shape{{BSt: 4, BSn: 2}, {BSt: 2, BSn: 2}, {BSt: 1, BSn: 2}, {BSt: 4, BSn: 4}},
		ECPThetas: []int{0, 2, 4, 6, 8, 10},
	}}
	dir := t.TempDir()
	ref := spec
	ref.Checkpoint, ref.Jobs = filepath.Join(dir, "ref.jsonl"), 1
	if _, err := serve.Run(context.Background(), ref, serve.RunOptions{}); err != nil {
		t.Fatal(err)
	}

	cache := filepath.Join(dir, "cache")
	victim := startDaemon(t, "-cache-dir", cache)
	// The victim sits behind a gate that kills it when its first record
	// stream is asked for and answers every request from then on with 502,
	// so the victim dies holding a leased shard whose records the
	// coordinator never got. Killing it once the first record is merged
	// instead let a fast victim stream its whole shard before any record
	// was merged (records merge in unit order), and then there was nothing
	// to release.
	var killed atomic.Bool
	target, err := url.Parse("http://" + victim.addr)
	if err != nil {
		t.Fatal(err)
	}
	toVictim := httputil.NewSingleHostReverseProxy(target)
	gate := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasSuffix(r.URL.Path, "/records") && !killed.Swap(true) {
			victim.cmd.Process.Kill()
		}
		if killed.Load() {
			http.Error(w, "worker killed", http.StatusBadGateway)
			return
		}
		toVictim.ServeHTTP(w, r)
	}))
	t.Cleanup(func() {
		gate.CloseClientConnections()
		gate.Close()
	})
	workers := []string{gate.URL}
	for i := range 2 {
		w := startDaemon(t, "-cache-dir", cache)
		proxy := httptest.NewServer(faultproxy.New(faultproxy.Config{
			Target: "http://" + w.addr, Seed: 7 + uint64(i),
			DropRate: 0.08, ErrorRate: 0.08, TruncateRate: 0.08, TruncateBytes: 300,
		}))
		t.Cleanup(func() {
			proxy.CloseClientConnections()
			proxy.Close()
		})
		workers = append(workers, proxy.URL)
	}

	var log lockedBuffer
	ck := filepath.Join(dir, "merged.jsonl")
	_, err = fleet.Run(context.Background(), spec, fleet.Config{
		Workers:    workers,
		Checkpoint: ck,
		LeaseTTL:   5 * time.Second,
		Worker:     fleet.WorkerConfig{RequestTimeout: 10 * time.Second, Seed: 1},
		Logf:       func(format string, args ...any) { fmt.Fprintf(&log, format+"\n", args...) },
	})
	if err != nil {
		t.Fatalf("fleet run: %v\n%s", err, log.String())
	}
	if err := victim.wait(t); err == nil {
		t.Fatal("the killed worker exited cleanly")
	}
	if !strings.Contains(log.String(), "released") && !strings.Contains(log.String(), "re-leasing") {
		t.Fatalf("the killed worker's shard was never released:\n%s", log.String())
	}
	got, err := os.ReadFile(ck)
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(ref.Checkpoint)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("merged checkpoint differs from the single-evaluator run: %d vs %d bytes", len(got), len(want))
	}
}
