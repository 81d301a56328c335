package fleet

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dse"
	"repro/internal/fleet/faultproxy"
	"repro/internal/serve"
)

// fleetSpec is the integration workload: 12 bishop points, small enough to
// evaluate in test time, large enough to shard three ways.
func fleetSpec() dse.SweepSpec {
	return dse.SweepSpec{Space: dse.Space{
		Models:    []int{4},
		BSA:       []bool{false, true},
		ECPThetas: []int{0, 2, 4, 6, 8, 10},
	}}
}

// newWorkerServer stands up a real bishopd API (manager + HTTP mux) and
// returns its server.
func newWorkerServer(t *testing.T, mcfg serve.ManagerConfig) *httptest.Server {
	t.Helper()
	mgr := serve.NewManager(mcfg)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		mgr.Close(ctx)
	})
	ts := httptest.NewServer(serve.NewServer(mgr).Handler())
	t.Cleanup(ts.Close)
	return ts
}

// referenceCheckpoint runs the spec unsharded through the exact runner the
// daemon uses and returns the checkpoint bytes — the ground truth every
// fleet test compares against. It evaluates on one worker so the file is in
// enumeration order, the order the fleet merge compacts into; Jobs is not
// part of the spec's identity.
func referenceCheckpoint(t *testing.T, spec dse.SweepSpec) []byte {
	t.Helper()
	s := spec
	s.Checkpoint = filepath.Join(t.TempDir(), "ref.jsonl")
	s.Jobs = 1
	if _, err := serve.Run(context.Background(), s, serve.RunOptions{}); err != nil {
		t.Fatalf("reference run: %v", err)
	}
	data, err := os.ReadFile(s.Checkpoint)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func fleetWorkerConfig() WorkerConfig {
	return WorkerConfig{
		RequestTimeout: 5 * time.Second,
		Retry:          RetryPolicy{MaxAttempts: 5, BaseDelay: 10 * time.Millisecond, MaxDelay: 200 * time.Millisecond},
		Breaker:        BreakerConfig{Threshold: 4, Cooldown: 100 * time.Millisecond},
		Seed:           1,
	}
}

// TestFleetMergeByteIdentical pins the tentpole identity on a healthy
// fleet: three workers, three shards, merged checkpoint byte-identical to
// the unsharded run.
func TestFleetMergeByteIdentical(t *testing.T) {
	spec := fleetSpec()
	want := referenceCheckpoint(t, spec)
	var workers []string
	for i := 0; i < 3; i++ {
		workers = append(workers, newWorkerServer(t, serve.ManagerConfig{}).URL)
	}
	ck := filepath.Join(t.TempDir(), "merged.jsonl")
	res, err := Run(context.Background(), spec, Config{
		Workers:    workers,
		Checkpoint: ck,
		LeaseTTL:   10 * time.Second,
		Worker:     fleetWorkerConfig(),
		Logf:       t.Logf,
	})
	if err != nil {
		t.Fatalf("fleet run: %v", err)
	}
	got, err := os.ReadFile(ck)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("merged checkpoint differs from unsharded run:\n%d vs %d bytes", len(got), len(want))
	}
	if res.Fresh != len(spec.Points()) || res.Resumed != 0 {
		t.Fatalf("fresh=%d resumed=%d, want %d/0", res.Fresh, res.Resumed, len(spec.Points()))
	}
}

// TestFleetMergeByteIdenticalUnderFaults is the adversarial version: two of
// the three workers sit behind fault proxies injecting dropped connections,
// 500s, and mid-stream truncation on a seeded schedule — and the merged
// checkpoint must still come out byte-identical.
func TestFleetMergeByteIdenticalUnderFaults(t *testing.T) {
	spec := fleetSpec()
	want := referenceCheckpoint(t, spec)
	var workers []string
	var proxies []*faultproxy.Proxy
	for i := 0; i < 3; i++ {
		up := newWorkerServer(t, serve.ManagerConfig{})
		if i == 0 {
			workers = append(workers, up.URL)
			continue
		}
		p := faultproxy.New(faultproxy.Config{
			Target:        up.URL,
			Seed:          uint64(40 + i),
			DropRate:      0.10,
			ErrorRate:     0.10,
			TruncateRate:  0.10,
			TruncateBytes: 200,
		})
		px := httptest.NewServer(p)
		t.Cleanup(px.Close)
		proxies = append(proxies, p)
		workers = append(workers, px.URL)
	}
	ck := filepath.Join(t.TempDir(), "merged.jsonl")
	res, err := Run(context.Background(), spec, Config{
		Workers:    workers,
		Checkpoint: ck,
		LeaseTTL:   10 * time.Second,
		MaxRevives: 5,
		Worker:     fleetWorkerConfig(),
		Logf:       t.Logf,
	})
	if err != nil {
		t.Fatalf("fleet run under faults: %v", err)
	}
	got, err := os.ReadFile(ck)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("merged checkpoint differs under faults: %d vs %d bytes", len(got), len(want))
	}
	if res.Fresh != len(spec.Points()) {
		t.Fatalf("fresh=%d, want %d", res.Fresh, len(spec.Points()))
	}
	faults := 0
	for _, p := range proxies {
		s := p.Stats()
		faults += s.Faults[faultproxy.FaultDrop] + s.Faults[faultproxy.FaultError] + s.Faults[faultproxy.FaultTruncate]
	}
	if faults == 0 {
		t.Fatal("fault schedule injected nothing; the test proved nothing")
	}
	t.Logf("recovered through %d injected faults", faults)
}

// stallFirstStream wraps a worker handler and silently stalls the first
// record-stream request forever (200 header, then no bytes until the client
// gives up) — the failure mode only a lease TTL can detect.
type stallFirstStream struct {
	h http.Handler

	mu      sync.Mutex
	stalled bool
}

func (s *stallFirstStream) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if strings.HasSuffix(r.URL.Path, "/records") {
		s.mu.Lock()
		first := !s.stalled
		s.stalled = true
		s.mu.Unlock()
		if first {
			w.WriteHeader(http.StatusOK)
			if f, ok := w.(http.Flusher); ok {
				f.Flush()
			}
			<-r.Context().Done()
			panic(http.ErrAbortHandler)
		}
	}
	s.h.ServeHTTP(w, r)
}

// TestFleetStalledWorkerIsReLeased pins the lease machinery end to end: a
// worker that accepts a shard and then goes silent past the TTL loses its
// lease, the shard runs elsewhere, and the merge still comes out
// byte-identical.
func TestFleetStalledWorkerIsReLeased(t *testing.T) {
	spec := fleetSpec()
	want := referenceCheckpoint(t, spec)

	mgrA := serve.NewManager(serve.ManagerConfig{})
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		mgrA.Close(ctx)
	})
	stalling := httptest.NewServer(&stallFirstStream{h: serve.NewServer(mgrA).Handler()})
	t.Cleanup(stalling.Close)
	healthy := newWorkerServer(t, serve.ManagerConfig{})

	ck := filepath.Join(t.TempDir(), "merged.jsonl")
	res, err := Run(context.Background(), spec, Config{
		Workers:    []string{stalling.URL, healthy.URL},
		Checkpoint: ck,
		LeaseTTL:   2 * time.Second,
		Worker:     fleetWorkerConfig(),
		Logf:       t.Logf,
	})
	if err != nil {
		t.Fatalf("fleet run with stalled worker: %v", err)
	}
	if res.ReLeases == 0 {
		t.Fatal("stalled shard was never re-leased")
	}
	got, err := os.ReadFile(ck)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("merged checkpoint differs after re-lease: %d vs %d bytes", len(got), len(want))
	}
}

// TestFleetWorkerKilledMidSweep pins crash recovery: one worker's server is
// hard-killed (connections reset, listener closed) after the first record
// lands, its breaker eats the dead host, the survivors absorb the work, and
// the merge is byte-identical.
func TestFleetWorkerKilledMidSweep(t *testing.T) {
	spec := fleetSpec()
	want := referenceCheckpoint(t, spec)

	var workers []string
	var victim *httptest.Server
	for i := 0; i < 3; i++ {
		ts := newWorkerServer(t, serve.ManagerConfig{})
		if i == 2 {
			victim = ts
		}
		workers = append(workers, ts.URL)
	}
	var kill sync.Once
	ck := filepath.Join(t.TempDir(), "merged.jsonl")
	res, err := Run(context.Background(), spec, Config{
		Workers:    workers,
		Checkpoint: ck,
		LeaseTTL:   5 * time.Second,
		MaxRevives: 3,
		Worker:     fleetWorkerConfig(),
		Logf:       t.Logf,
		OnRecord: func(dse.Record) {
			kill.Do(func() {
				go func() {
					victim.CloseClientConnections()
					victim.Listener.Close()
				}()
			})
		},
	})
	if err != nil {
		t.Fatalf("fleet run with killed worker: %v", err)
	}
	got, err := os.ReadFile(ck)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("merged checkpoint differs after worker kill: %d vs %d bytes", len(got), len(want))
	}
	if res.Fresh != len(spec.Points()) {
		t.Fatalf("fresh=%d, want %d", res.Fresh, len(spec.Points()))
	}
}

// settleShardJobs polls every worker until no shard job of spec is queued
// or running.
func settleShardJobs(t *testing.T, spec dse.SweepSpec, workers []string, shards int) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for shard := 0; shard < shards; shard++ {
		ss := spec.Normalized()
		ss.Shard, ss.Shards = shard, shards
		ss.Checkpoint = ""
		id := ss.ID()
		for _, base := range workers {
			wk := NewWorker(base, fastRetry())
			for {
				st, err := wk.Status(context.Background(), id)
				if err != nil || st.State == serve.StateDone ||
					st.State == serve.StateFailed || st.State == serve.StateCanceled {
					break // unknown job or terminal: settled on this worker
				}
				if time.Now().After(deadline) {
					t.Fatalf("shard %d job %s stuck %s on %s", shard, id, st.State, base)
				}
				time.Sleep(20 * time.Millisecond)
			}
		}
	}
}

// TestFleetCoordinatorResume pins the durability contract: a coordinator
// torn down mid-sweep (context cancel — the polite spelling of SIGKILL; the
// checkpoint is fsynced per record either way) resumes from its checkpoint,
// re-evaluates none of the completed points, and finishes byte-identical.
func TestFleetCoordinatorResume(t *testing.T) {
	spec := fleetSpec()
	want := referenceCheckpoint(t, spec)

	// Both workers share one result cache and count fresh evaluations —
	// the "zero re-evaluation" ledger.
	cache := &serve.Cache{Dir: t.TempDir()}
	var misses atomic.Int64
	countingRun := func(ctx context.Context, s dse.SweepSpec, opt serve.RunOptions) (*serve.RunResult, error) {
		res, err := serve.Run(ctx, s, opt)
		if res != nil {
			misses.Add(int64(res.CacheMisses))
		}
		return res, err
	}
	var workers []string
	for i := 0; i < 2; i++ {
		ts := newWorkerServer(t, serve.ManagerConfig{Cache: cache, RunFunc: countingRun})
		workers = append(workers, ts.URL)
	}

	ck := filepath.Join(t.TempDir(), "merged.jsonl")
	cfg := Config{
		Workers:    workers,
		Checkpoint: ck,
		LeaseTTL:   10 * time.Second,
		MaxRevives: 3,
		Worker:     fleetWorkerConfig(),
		Logf:       t.Logf,
	}

	// Run 1: tear the coordinator down after the first record is durable.
	ctx1, cancel1 := context.WithCancel(context.Background())
	defer cancel1()
	cfg1 := cfg
	cfg1.OnRecord = func(dse.Record) { cancel1() }
	if _, err := Run(ctx1, spec, cfg1); err == nil {
		t.Fatal("canceled run reported success")
	}
	// The dead coordinator's worker jobs wind down asynchronously (the
	// dropped streams cancel them); wait for every shard job to reach a
	// terminal state so the evaluation ledger is settled before run 2.
	settleShardJobs(t, spec, workers, 2)
	w1, err := dse.OpenCheckpointWriter(ck)
	if err != nil {
		t.Fatal(err)
	}
	durable := len(w1.Records())
	w1.Close()
	if durable == 0 {
		t.Fatal("nothing durable after the first OnRecord")
	}
	misses2Before := misses.Load()

	// Run 2: same checkpoint, same (still-running) workers.
	res, err := Run(context.Background(), spec, cfg)
	if err != nil {
		t.Fatalf("resumed run: %v", err)
	}
	if res.Resumed != durable {
		t.Fatalf("resumed %d records, checkpoint held %d", res.Resumed, durable)
	}
	got, err := os.ReadFile(ck)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("resumed checkpoint differs: %d vs %d bytes", len(got), len(want))
	}
	// Zero re-evaluation of completed points: everything durable before the
	// restart came out of the cache, so run 2's fresh evaluations are at
	// most the points the checkpoint did not yet hold.
	if m2 := misses.Load() - misses2Before; m2 > int64(len(spec.Points())-durable) {
		t.Fatalf("resumed run re-evaluated: %d fresh evaluations for %d missing points",
			m2, len(spec.Points())-durable)
	}
}
