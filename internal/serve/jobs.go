package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/dse"
)

// Submission outcomes the HTTP layer maps to status codes.
var (
	// ErrQueueFull rejects a submission when the bounded job queue has no
	// room — the admission-control signal behind 429 + Retry-After.
	ErrQueueFull = errors.New("serve: job queue full")
	// ErrClosed rejects submissions while the manager drains.
	ErrClosed = errors.New("serve: manager closed")
)

// JobState is the lifecycle of a sweep job.
type JobState string

const (
	StateQueued   JobState = "queued"
	StateRunning  JobState = "running"
	StateDone     JobState = "done"
	StateFailed   JobState = "failed"
	StateCanceled JobState = "canceled"
)

// terminal reports whether the state is final.
func (s JobState) terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// JobStatus is the JSON status document of one job.
type JobStatus struct {
	ID string `json:"id"`
	// Kind distinguishes successive-halving searches ("search") from plain
	// sweeps (the absent field), which keeps sweep status documents
	// byte-identical to the pre-search daemon's.
	Kind      string   `json:"kind,omitempty"`
	State     JobState `json:"state"`
	Points    int      `json:"points"`     // spec enumeration size
	Records   int      `json:"records"`    // records known so far
	Evaluated int      `json:"evaluated"`  // points simulated fresh by this job
	CacheHits int      `json:"cache_hits"` // points adopted from the result cache
	// Runs counts how many times this spec has entered the run queue: 1 for
	// a first submission, +1 for every revival of a failed or canceled job. A
	// client holding a record-log offset uses a run change (equivalently, a
	// Records count below its offset) as the signal to restart from zero.
	Runs  int    `json:"runs"`
	Error string `json:"error,omitempty"`
}

// Job is one submitted sweep or search: its digest-derived identity, the
// run that evaluates its spec, and the growing record log that streams and
// frontiers read from. A search job streams every rung's records —
// low-fidelity proxies included, distinguishable by their fidelity tag —
// through the same log.
type Job struct {
	ID string
	// kind is the status document's Kind: "search" for a successive-halving
	// job, "" for a sweep.
	kind string
	// run evaluates the job's spec, reporting records through opts.OnRecord.
	run func(ctx context.Context, opts RunOptions) (*RunResult, error)

	ctx    context.Context
	cancel context.CancelFunc
	runs   int // 1 for a first submission, +1 per revival; immutable after Submit

	mu        sync.Mutex
	state     JobState
	points    int
	recs      []dse.Record
	seen      map[string]bool
	evaluated int
	cacheHits int
	err       error
	watchers  int
	changed   chan struct{} // closed and replaced on every append / state change
}

// addRecord appends a record to the job log (dedup by digest) and wakes
// streamers. It is the RunOptions.OnRecord hook, so calls are serialized.
func (j *Job) addRecord(r dse.Record) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.appendLocked(r)
}

func (j *Job) appendLocked(r dse.Record) {
	// The log key carries the fidelity: a search job holds both a proxy and
	// a full-fidelity record for every survivor, and the full one must not
	// be dropped as a duplicate.
	key := fmt.Sprintf("%s.f%d", r.Digest, r.Fidelity)
	if j.seen[key] {
		return
	}
	j.seen[key] = true
	j.recs = append(j.recs, r)
	j.wakeLocked()
}

func (j *Job) wakeLocked() {
	close(j.changed)
	j.changed = make(chan struct{})
}

// snapshotFrom returns the records appended at or after index from, the
// current state, and the channel that closes on the next change — the
// streamer's wait primitive.
func (j *Job) snapshotFrom(from int) (recs []dse.Record, state JobState, changed <-chan struct{}) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if from < len(j.recs) {
		recs = append(recs, j.recs[from:]...)
	}
	return recs, j.state, j.changed
}

// Records returns a snapshot of every record known so far.
func (j *Job) Records() []dse.Record {
	recs, _, _ := j.snapshotFrom(0)
	return recs
}

// Status returns the job's status document.
func (j *Job) Status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := JobStatus{ID: j.ID, State: j.state, Points: j.points,
		Records: len(j.recs), Evaluated: j.evaluated, CacheHits: j.cacheHits, Runs: j.runs, Kind: j.kind}
	if j.err != nil {
		st.Error = j.err.Error()
	}
	return st
}

// Cancel stops the job's sweep; completed records stay durable (checkpoint,
// cache) and a re-submission of the same spec resumes from them.
func (j *Job) Cancel() { j.cancel() }

// addWatcher registers a record streamer.
func (j *Job) addWatcher() {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.watchers++
}

// dropWatcher unregisters a streamer. A watcher that disconnected before
// the job finished — rather than draining a finished stream — cancels the
// sweep when it was the last one attached: a live stream adopts the job,
// and tearing the last one down reclaims the evaluators immediately. The
// records already produced are durable, so resubmitting resumes.
func (j *Job) dropWatcher(disconnected bool) {
	j.mu.Lock()
	j.watchers--
	cancel := disconnected && j.watchers == 0 && !j.state.terminal()
	j.mu.Unlock()
	if cancel {
		j.cancel()
	}
}

func (j *Job) setState(s JobState) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.state = s
	j.wakeLocked()
}

// finish records the run outcome: the final merged record set (checkpoint
// recoveries included), the counters, and the terminal state.
func (j *Job) finish(res *RunResult, err error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if res != nil {
		if res.Set != nil {
			for _, r := range res.Set.Records {
				j.appendLocked(r)
			}
			j.evaluated = res.Set.Evaluated
		}
		j.cacheHits = res.CacheHits
	}
	switch {
	case err == nil:
		j.state = StateDone
	case errors.Is(err, context.Canceled) || j.ctx.Err() != nil:
		j.state = StateCanceled
		j.err = err
	default:
		j.state = StateFailed
		j.err = err
	}
	j.wakeLocked()
}

// ManagerConfig sizes the job manager.
type ManagerConfig struct {
	// QueueDepth bounds the jobs admitted but not yet running (default 8);
	// submissions beyond it are rejected with ErrQueueFull.
	QueueDepth int
	// Workers is the number of sweeps run concurrently (default 1 — one
	// sweep already saturates the evaluator pool).
	Workers int
	// Jobs is the per-sweep evaluator count applied to specs that leave
	// theirs unset (0 → GOMAXPROCS).
	Jobs int
	// Cache, when non-nil, is the shared result cache every job runs with.
	Cache *Cache
	// RunFunc substitutes the spec runner — a test seam; nil means Run.
	RunFunc func(context.Context, dse.SweepSpec, RunOptions) (*RunResult, error)
}

// Manager owns the job table and the bounded execution queue. Jobs are
// keyed by spec digest: submitting a spec the manager has already seen
// returns the existing job (idempotent submission), whatever its state.
type Manager struct {
	cfg        ManagerConfig
	queue      chan *Job
	baseCtx    context.Context
	baseCancel context.CancelFunc
	wg         sync.WaitGroup

	mu     sync.Mutex
	jobs   map[string]*Job
	closed bool
	// Completed-run statistics behind the Retry-After estimate: how many
	// sweeps finished cleanly and how long they ran in total.
	completedRuns int
	completedDur  time.Duration
}

// NewManager starts a manager with cfg.Workers executor goroutines.
func NewManager(cfg ManagerConfig) *Manager {
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 8
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 1
	}
	ctx, cancel := context.WithCancel(context.Background())
	m := &Manager{
		cfg:        cfg,
		queue:      make(chan *Job, cfg.QueueDepth),
		baseCtx:    ctx,
		baseCancel: cancel,
		jobs:       map[string]*Job{},
	}
	for i := 0; i < cfg.Workers; i++ {
		m.wg.Add(1)
		go func() {
			defer m.wg.Done()
			for j := range m.queue {
				m.runJob(j)
			}
		}()
	}
	return m
}

// Submit admits a spec: a new job enters the queue (created=true), a spec
// already known returns its existing job. A full queue rejects with
// ErrQueueFull, a draining manager with ErrClosed.
func (m *Manager) Submit(spec dse.SweepSpec) (j *Job, created bool, err error) {
	spec = spec.Normalized()
	if err := spec.Validate(); err != nil {
		return nil, false, err
	}
	if m.cfg.Jobs > 0 && spec.Jobs <= 0 {
		spec.Jobs = m.cfg.Jobs
	}
	run := m.cfg.RunFunc
	if run == nil {
		run = Run
	}
	return m.admit(spec.ID(), len(spec.Points()), "", func(ctx context.Context, opts RunOptions) (*RunResult, error) {
		return run(ctx, spec, opts)
	})
}

// SubmitSearch admits a successive-halving search under the same admission
// rules as Submit: idempotent by search-spec digest (shared job table, so a
// search id answers on every job endpoint), bounded queue, revival of
// failed or canceled runs.
func (m *Manager) SubmitSearch(spec dse.SearchSpec) (j *Job, created bool, err error) {
	spec = spec.Normalized()
	if err := spec.Validate(); err != nil {
		return nil, false, err
	}
	if m.cfg.Jobs > 0 && spec.Jobs <= 0 {
		spec.Jobs = m.cfg.Jobs
	}
	return m.admit(spec.ID(), len(spec.Points()), "search", func(ctx context.Context, opts RunOptions) (*RunResult, error) {
		return RunSearch(ctx, spec, opts)
	})
}

// admit is the shared admission path behind Submit and SubmitSearch.
func (m *Manager) admit(id string, points int, kind string, run func(context.Context, RunOptions) (*RunResult, error)) (j *Job, created bool, err error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil, false, ErrClosed
	}
	runs := 1
	if old, ok := m.jobs[id]; ok {
		// A queued, running, or successfully finished job answers the
		// resubmission as-is. A job that failed or was canceled is *revived*:
		// the spec re-enters the queue as a fresh run under the same id —
		// every record the dead run produced is already durable in the
		// checkpoint and the result cache, so the revival resumes instead of
		// redoing work. This is what lets a fleet coordinator recover a shard
		// whose stream it dropped (the disconnect canceled the worker job).
		if st := old.Status().State; st != StateFailed && st != StateCanceled {
			return old, false, nil
		}
		runs = old.runs + 1
	}
	ctx, cancel := context.WithCancel(m.baseCtx)
	j = &Job{
		ID: id, kind: kind, run: run, ctx: ctx, cancel: cancel, runs: runs,
		state: StateQueued, points: points,
		seen: map[string]bool{}, changed: make(chan struct{}),
	}
	select {
	case m.queue <- j:
		m.jobs[id] = j
		return j, true, nil
	default:
		cancel()
		return nil, false, ErrQueueFull
	}
}

// Get returns the job with the given id.
func (m *Manager) Get(id string) (*Job, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	return j, ok
}

func (m *Manager) runJob(j *Job) {
	if m.baseCtx.Err() != nil {
		j.finish(nil, m.baseCtx.Err())
		return
	}
	j.setState(StateRunning)
	//lint:ignore determinism job wall-clock telemetry feeding Retry-After backlog estimates; never reaches records or digests
	start := time.Now()
	res, err := j.run(j.ctx, RunOptions{Cache: m.cfg.Cache, OnRecord: j.addRecord})
	if err == nil {
		//lint:ignore determinism job wall-clock telemetry feeding Retry-After backlog estimates; never reaches records or digests
		m.noteCompleted(time.Since(start))
	}
	j.finish(res, err)
}

// noteCompleted folds one cleanly finished run into the duration statistics.
func (m *Manager) noteCompleted(d time.Duration) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.completedRuns++
	m.completedDur += d
}

// maxRetryAfter caps the pacing hint: past it a client should treat the
// server as saturated rather than sleep for hours.
const maxRetryAfter = 5 * time.Minute

// RetryAfter estimates how long a rejected submitter should back off before
// the queue plausibly has room: the queued-job backlog times the mean
// completed-sweep duration, floored at one second. A daemon that has not
// finished a sweep yet answers the floor.
func (m *Manager) RetryAfter() time.Duration {
	m.mu.Lock()
	runs, total := m.completedRuns, m.completedDur
	m.mu.Unlock()
	mean := time.Duration(0)
	if runs > 0 {
		mean = total / time.Duration(runs)
	}
	return estimateRetryAfter(len(m.queue), mean)
}

// estimateRetryAfter is the pure pacing formula: (queued jobs + the one
// occupying the worker) × mean sweep duration, floored at 1s, capped at
// maxRetryAfter.
func estimateRetryAfter(queued int, mean time.Duration) time.Duration {
	est := time.Duration(queued+1) * mean
	if est < time.Second {
		return time.Second
	}
	if est > maxRetryAfter {
		return maxRetryAfter
	}
	return est
}

// Draining reports whether Close has been called: the manager admits no
// more jobs, though the ones it accepted may still be running.
func (m *Manager) Draining() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.closed
}

// Close drains the manager: no new submissions are admitted, jobs already
// accepted keep running (their records keep landing in checkpoint and
// cache), and Close blocks until they finish. When ctx expires first, the
// remaining jobs are canceled and Close waits for the workers to unwind —
// cancellation is graceful by construction, since every completed record is
// already durable.
func (m *Manager) Close(ctx context.Context) error {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return fmt.Errorf("serve: manager closed twice")
	}
	m.closed = true
	m.mu.Unlock()
	close(m.queue)
	done := make(chan struct{})
	go func() {
		m.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
		m.baseCancel()
		<-done
	}
	m.baseCancel()
	return nil
}
