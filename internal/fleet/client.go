// Package fleet is the distributed sweep orchestrator: a coordinator that
// leases {spec digest, shard i/n} work units to a set of bishopd workers and
// keeps the whole sweep correct under worker death, network flakiness, and
// coordinator restart. The worker client retries transient failures with
// exponential backoff and jitter (honoring Retry-After on 429) behind a
// per-worker circuit breaker; the lease table declares a worker that stops
// streaming records past its TTL stalled and re-leases its shard; and the
// streaming merger digest-dedups the overlap re-delivered shards inevitably
// produce into one durable JSONL checkpoint that is byte-identical to an
// unsharded dse.Sweep and resumable after a coordinator SIGKILL.
package fleet

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/dse"
	"repro/internal/serve"
)

// RetryPolicy shapes the transient-failure retry loop of one worker client.
type RetryPolicy struct {
	// MaxAttempts bounds the tries per call, first attempt included
	// (default 4).
	MaxAttempts int
	// BaseDelay is the backoff before the second attempt; it doubles per
	// retry up to MaxDelay, then equal-jitters in [d/2, d) (defaults
	// 200ms / 5s).
	BaseDelay, MaxDelay time.Duration
}

func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 4
	}
	if p.BaseDelay <= 0 {
		p.BaseDelay = 200 * time.Millisecond
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = 5 * time.Second
	}
	return p
}

// WorkerConfig parameterizes the HTTP client every worker is driven through.
type WorkerConfig struct {
	// RequestTimeout bounds each unary request (submit, status, health;
	// default 10s). Record streams are long-lived and are bounded by the
	// call context and the coordinator's lease TTL instead.
	RequestTimeout time.Duration
	Retry          RetryPolicy
	Breaker        BreakerConfig
	// Seed seeds the backoff jitter (0 → 1): deterministic given the call
	// sequence, decorrelated across workers by folding the base URL in.
	Seed uint64
}

func (c WorkerConfig) withDefaults() WorkerConfig {
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 10 * time.Second
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	c.Retry = c.Retry.withDefaults()
	c.Breaker = c.Breaker.withDefaults()
	return c
}

// errPermanent wraps an error the retry loop must not retry (4xx responses:
// the request itself is wrong, not the transport).
type errPermanent struct{ err error }

func (e errPermanent) Error() string { return e.err.Error() }
func (e errPermanent) Unwrap() error { return e.err }

// Worker is the fault-aware client for one bishopd instance.
type Worker struct {
	// Name identifies the worker in leases, logs, and stats (the base URL).
	Name string

	base string
	cfg  WorkerConfig
	hc   *http.Client
	br   *breaker

	mu  sync.Mutex
	rng *rand.Rand
}

// NewWorker builds a client for the bishopd at baseURL (scheme optional;
// "host:port" is promoted to "http://host:port").
func NewWorker(baseURL string, cfg WorkerConfig) *Worker {
	cfg = cfg.withDefaults()
	base := strings.TrimSuffix(baseURL, "/")
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	return &Worker{
		Name: base,
		base: base,
		cfg:  cfg,
		hc:   &http.Client{},
		br:   newBreaker(cfg.Breaker, nil),
	}
}

// rand returns a jitter fraction in [0,1) from the worker's seeded stream.
func (w *Worker) randFloat() float64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.rng == nil {
		seed := w.cfg.Seed
		for _, b := range []byte(w.base) {
			seed = seed*1099511628211 ^ uint64(b)
		}
		w.rng = rand.New(rand.NewSource(int64(seed)))
	}
	return w.rng.Float64()
}

// backoff returns the equal-jittered delay before retry attempt (1-based
// retry count): d = min(base·2^(attempt-1), max), jittered into [d/2, d).
func (w *Worker) backoff(attempt int) time.Duration {
	d := w.cfg.Retry.BaseDelay << uint(attempt-1)
	if d <= 0 || d > w.cfg.Retry.MaxDelay {
		d = w.cfg.Retry.MaxDelay
	}
	half := d / 2
	return half + time.Duration(w.randFloat()*float64(half))
}

// sleep waits d respecting ctx.
func sleep(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// maxRetryAfter caps server-directed 429 pacing. It is deliberately far
// above any backoff ceiling — a loaded daemon may legitimately ask for tens
// of seconds — but finite, so a confused clock or a corrupt header cannot
// park a worker for hours.
const maxRetryAfter = 5 * time.Minute

// retryAfter parses a 429's Retry-After header, which RFC 9110 allows in
// either delta-seconds or HTTP-date form, defensively clamped: a missing,
// unparsable, negative, or in-the-past value falls back to fall (sleeping
// on garbage would stall the shard), and an absurdly large one is capped
// at max.
func retryAfter(resp *http.Response, fall, max time.Duration) time.Duration {
	v := strings.TrimSpace(resp.Header.Get("Retry-After"))
	if v == "" {
		return fall
	}
	var d time.Duration
	if secs, err := strconv.Atoi(v); err == nil {
		d = time.Duration(secs) * time.Second
	} else if t, err := http.ParseTime(v); err == nil {
		d = time.Until(t)
	} else {
		return fall
	}
	if d < 0 {
		return fall
	}
	if d > max {
		return max
	}
	return d
}

// doJSON runs one unary request with the full robustness stack — per-request
// timeout, breaker gate, retry with backoff+jitter on transient failures
// (connect errors, 5xx), 429 pacing via Retry-After — and decodes the
// response body into out when it is non-nil.
func (w *Worker) doJSON(ctx context.Context, method, path string, body []byte, out any) error {
	var lastErr error
	var pacing time.Duration
	for attempt := 1; attempt <= w.cfg.Retry.MaxAttempts; attempt++ {
		if attempt > 1 {
			// 429 pacing (the worker's own Retry-After hint) replaces the
			// backoff schedule; everything else equal-jitters exponentially.
			delay := pacing
			if delay <= 0 {
				delay = w.backoff(attempt - 1)
			}
			if err := sleep(ctx, delay); err != nil {
				return err
			}
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		if err := w.br.allow(); err != nil {
			return err // fail fast: do not sit out retries against an open breaker
		}
		var err error
		pacing, err = w.attemptJSON(ctx, method, path, body, out)
		if err == nil {
			return nil
		}
		var perm errPermanent
		if errors.As(err, &perm) {
			return perm.err
		}
		lastErr = err
	}
	return fmt.Errorf("fleet: %s %s%s: attempts exhausted: %w", method, w.base, path, lastErr)
}

// attemptJSON is one try of doJSON. It returns (pacing>0, err) for a 429,
// a plain error for transient failures, and errPermanent for 4xx.
func (w *Worker) attemptJSON(ctx context.Context, method, path string, body []byte, out any) (pacing time.Duration, err error) {
	rctx, cancel := context.WithTimeout(ctx, w.cfg.RequestTimeout)
	defer cancel()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(rctx, method, w.base+path, rd)
	if err != nil {
		return 0, errPermanent{err}
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := w.hc.Do(req)
	if err != nil {
		w.br.failure()
		return 0, fmt.Errorf("fleet: %s %s%s: %w", method, w.base, path, err)
	}
	defer func() {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	switch {
	case resp.StatusCode >= 200 && resp.StatusCode < 300:
		w.br.success()
		if out != nil {
			data, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
			if err != nil {
				w.br.failure()
				return 0, fmt.Errorf("fleet: read %s%s: %w", w.base, path, err)
			}
			if err := jsonUnmarshal(data, out); err != nil {
				w.br.failure()
				return 0, fmt.Errorf("fleet: decode %s%s: %w", w.base, path, err)
			}
		}
		return 0, nil
	case resp.StatusCode == http.StatusTooManyRequests:
		// The host is alive and pacing us: not a breaker failure.
		w.br.success()
		return retryAfter(resp, w.cfg.Retry.BaseDelay, maxRetryAfter), fmt.Errorf("fleet: %s%s: 429 queue full", w.base, path)
	case resp.StatusCode >= 500:
		w.br.failure()
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return 0, fmt.Errorf("fleet: %s%s: %s (%s)", w.base, path, resp.Status, bytes.TrimSpace(msg))
	default:
		w.br.success() // the server answered deliberately; the request is at fault
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return 0, errPermanent{fmt.Errorf("fleet: %s%s: %s (%s)", w.base, path, resp.Status, bytes.TrimSpace(msg))}
	}
}

// Submit posts a sweep spec and returns the job status the worker answered.
func (w *Worker) Submit(ctx context.Context, spec dse.SweepSpec) (serve.JobStatus, error) {
	data, err := dse.EncodeSpec(spec)
	if err != nil {
		return serve.JobStatus{}, err
	}
	var st serve.JobStatus
	if err := w.doJSON(ctx, http.MethodPost, "/v1/sweeps", data, &st); err != nil {
		return serve.JobStatus{}, err
	}
	return st, nil
}

// Status fetches the status document of one job.
func (w *Worker) Status(ctx context.Context, id string) (serve.JobStatus, error) {
	var st serve.JobStatus
	if err := w.doJSON(ctx, http.MethodGet, "/v1/sweeps/"+id, nil, &st); err != nil {
		return serve.JobStatus{}, err
	}
	return st, nil
}

// BreakerOpen reports whether the worker's circuit breaker currently fails
// calls fast.
func (w *Worker) BreakerOpen() bool { return w.br.open() }

// Stream follows the job's NDJSON record stream starting at record offset
// from, invoking fn for every line, and returns the number of lines
// delivered. A nil error means the stream ended cleanly — the job reached a
// terminal state; the caller confirms which with Status. No retry happens
// in here: the caller owns the resume loop (reconnecting with from advanced
// by the returned count), because resuming is interwoven with lease
// heartbeats and job revival.
func (w *Worker) Stream(ctx context.Context, id string, from int, fn func(line []byte) error) (lines int, err error) {
	if err := w.br.allow(); err != nil {
		return 0, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		fmt.Sprintf("%s/v1/sweeps/%s/records?from=%d", w.base, id, from), nil)
	if err != nil {
		return 0, errPermanent{err}
	}
	resp, err := w.hc.Do(req)
	if err != nil {
		w.br.failure()
		return 0, fmt.Errorf("fleet: stream %s: %w", w.base, err)
	}
	defer func() {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		if resp.StatusCode >= 500 || resp.StatusCode == http.StatusTooManyRequests {
			w.br.failure()
			return 0, fmt.Errorf("fleet: stream %s: %s (%s)", w.base, resp.Status, bytes.TrimSpace(msg))
		}
		w.br.success()
		return 0, errPermanent{fmt.Errorf("fleet: stream %s: %s (%s)", w.base, resp.Status, bytes.TrimSpace(msg))}
	}
	w.br.success()
	// Strict framing: only newline-terminated lines count. A connection torn
	// mid-record ends in an unterminated tail, which is dropped rather than
	// delivered, so the caller's resume offset never advances past a line
	// that did not fully arrive.
	br := bufio.NewReader(resp.Body)
	for {
		line, err := br.ReadBytes('\n')
		if err == io.EOF {
			return lines, nil
		}
		if err != nil {
			// Mid-stream death (truncation, reset, worker kill): transient.
			w.br.failure()
			return lines, fmt.Errorf("fleet: stream %s: %w", w.base, err)
		}
		if len(line) == 1 {
			continue
		}
		if err := fn(line[:len(line)-1]); err != nil {
			return lines, err
		}
		lines++
	}
}

// jsonUnmarshal is the one non-strict decode in the stack: status documents
// may grow fields; the client must stay compatible with newer workers.
// Record lines never pass through here — they decode strictly via
// dse.ParseRecordLine in the merge path.
func jsonUnmarshal(data []byte, out any) error {
	//lint:ignore strict-json worker status documents from newer daemons may carry fields this build does not know; rejecting them would break rolling fleet upgrades
	return json.Unmarshal(data, out)
}
