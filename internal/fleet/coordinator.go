package fleet

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/dse"
	"repro/internal/serve"
)

// errLeaseLost aborts a shard run whose lease was reaped (the coordinator
// declared the worker stalled and re-leased the shard elsewhere).
var errLeaseLost = errors.New("fleet: lease lost")

// Config parameterizes a distributed sweep run.
type Config struct {
	// Workers are bishopd base URLs ("host:port" or full http:// URLs).
	Workers []string
	// Shards is the shard count (default: one per worker).
	Shards int
	// Checkpoint is the durable merged JSONL file: the checkpoint of the
	// run's dse.Plan, which commits merged records in unit order after every
	// record the file already holds, so the file ends byte-identical to the
	// checkpoint an unsharded dse.Sweep of the same spec leaves over it. A
	// record that arrives ahead of an uncommitted unit waits in memory; a
	// coordinator killed mid-run resumes from the committed prefix, and the
	// shards of buffered records are submitted again.
	Checkpoint string
	// LeaseTTL is how long a leased shard may go without delivering a record
	// before its holder is declared stalled and the shard re-leased
	// (default 30s).
	LeaseTTL time.Duration
	// MaxRevives bounds job revivals per lease hold before the shard is
	// handed to another worker (default 2).
	MaxRevives int
	// Worker tunes every worker client (timeouts, retry, breaker, jitter
	// seed).
	Worker WorkerConfig
	// OnRecord, when set, observes the first delivery of every unit once it
	// is durable in the checkpoint, one call at a time, in unit order.
	OnRecord func(dse.Record)
	// Logf, when set, receives progress lines.
	Logf func(format string, args ...any)
}

func (c Config) withDefaults() Config {
	if c.Shards <= 0 {
		c.Shards = len(c.Workers)
	}
	if c.LeaseTTL <= 0 {
		c.LeaseTTL = 30 * time.Second
	}
	if c.MaxRevives <= 0 {
		c.MaxRevives = 2
	}
	c.Worker = c.Worker.withDefaults()
	return c
}

// Result summarizes a completed distributed sweep.
type Result struct {
	// Records is the merged record set in enumeration order — exactly what
	// an unsharded dse.Sweep of the spec produces.
	Records []dse.Record
	// set is the plan's result set, which RunSearch hands to dse.Search.
	set *dse.ResultSet
	// Points is the size of the spec's point set (unique digests may be
	// fewer when a sampled space repeats coordinates).
	Points int
	// Resumed counts records of the spec's units recovered from the
	// checkpoint before any worker was contacted; Fresh counts records
	// ingested from workers this run.
	Resumed, Fresh int
	// ReLeases counts stalled-lease reaps (shards taken from a silent
	// holder and re-leased).
	ReLeases int
	// WorkerRecords counts fresh records per worker base URL.
	WorkerRecords map[string]int
}

// coordinator is the per-run state shared by worker runners.
type coordinator struct {
	cfg    Config
	spec   dse.SweepSpec
	shards [][]int // unit indices per shard (dse.Config.Units)
	table  *leaseTable
	plan   *dse.Plan

	mu       sync.Mutex
	byWorker map[string]int
}

func (c *coordinator) logf(format string, args ...any) {
	if c.cfg.Logf != nil {
		c.cfg.Logf(format, args...)
	}
}

// ingest merges one record line from a worker: parse, then commit at its
// digest's plan position (a re-delivered record is dropped). The error is
// the checkpoint's append failure, which aborts the run.
func (c *coordinator) ingest(worker string, line []byte) error {
	rec, ok := dse.ParseRecordLine(line)
	if !ok {
		// A torn or foreign line (mid-record truncation upstream never
		// reaches here — Worker.Stream only yields full lines — but a fault
		// proxy can corrupt a line in flight): drop it; the digest inventory
		// keeps the shard incomplete until a good copy arrives.
		return nil
	}
	k, ok := c.plan.Position(rec.Digest)
	if !ok {
		return nil // not a unit this run still has to merge
	}
	fresh, err := c.plan.Commit(k, rec)
	if fresh {
		c.mu.Lock()
		c.byWorker[worker]++
		c.mu.Unlock()
	}
	return err
}

// covered reports whether every unit of the shard has a record.
func (c *coordinator) covered(shard int) bool {
	for _, i := range c.shards[shard] {
		if !c.plan.Has(i) {
			return false
		}
	}
	return true
}

// shardSpec derives the spec a worker runs for one shard: same result
// identity axes plus the shard assignment — a distinct job digest per shard
// — with the coordinator's checkpoint detached (workers must never write
// the merged file; their durability is the shared result cache).
func (c *coordinator) shardSpec(shard int) dse.SweepSpec {
	s := c.spec.Normalized()
	s.Shard, s.Shards = shard, c.cfg.Shards
	s.Checkpoint = ""
	return s
}

// runShard drives one leased shard on one worker to completion: submit the
// shard job (idempotent; terminal failed/canceled jobs are revived), stream
// its record log from the last held offset, heartbeat the lease per record,
// and confirm digest coverage once the job reports done.
func (c *coordinator) runShard(ctx context.Context, w *Worker, shard, gen int) error {
	spec := c.shardSpec(shard)
	st, err := w.Submit(ctx, spec)
	if err != nil {
		return err
	}
	id := st.ID
	offset := 0
	revives := 0
	for {
		if !c.table.heartbeat(shard, gen) {
			return errLeaseLost
		}
		n, serr := w.Stream(ctx, id, offset, func(line []byte) error {
			if !c.table.heartbeat(shard, gen) {
				return errLeaseLost
			}
			return c.ingest(w.Name, line)
		})
		offset += n
		if serr != nil {
			if errors.Is(serr, errLeaseLost) || errors.Is(serr, context.Canceled) ||
				ctx.Err() != nil || c.plan.Err() != nil {
				return serr
			}
			// Transient stream fault (truncation, reset, worker death):
			// fall through to a status probe; the retry/backoff stack inside
			// Status absorbs short outages, the breaker fails persistent ones.
			c.logf("fleet: %s shard %d: stream fault after %d records: %v", w.Name, shard, offset, serr)
		}
		st, err := w.Status(ctx, id)
		if err != nil {
			return err
		}
		if st.Records < offset {
			// The job was revived (a fresh run under the same ID): its record
			// log restarted, so our offset is from a previous incarnation.
			// Replay from zero — the plan drops every record it already holds.
			c.logf("fleet: %s shard %d: job restarted (run %d), replaying log", w.Name, shard, st.Runs)
			offset = 0
			continue
		}
		switch st.State {
		case serve.StateDone:
			if c.covered(shard) {
				return nil
			}
			// Done but digests missing: records were lost between the job's
			// log and us (e.g. a fault proxy corrupted lines). Resubmit — the
			// worker's result cache makes the re-run cheap.
			fallthrough
		case serve.StateFailed, serve.StateCanceled:
			if revives >= c.cfg.MaxRevives {
				return fmt.Errorf("fleet: %s shard %d: %s after %d revives", w.Name, shard, st.State, revives)
			}
			revives++
			if _, err := w.Submit(ctx, spec); err != nil {
				return err
			}
			offset = 0 // revived run: fresh record log
		default:
			// queued or running: reconnect and keep streaming.
		}
	}
}

// runWorker is one worker's runner loop: acquire a lease, drive the shard,
// complete or release, repeat until no work remains.
func (c *coordinator) runWorker(ctx context.Context, w *Worker) {
	for {
		sctx, cancel := context.WithCancel(ctx)
		shard, gen, ok := c.table.acquire(w.Name, cancel)
		if !ok {
			cancel()
			return
		}
		err := c.runShard(sctx, w, shard, gen)
		cancel()
		if err == nil {
			c.table.done(shard, gen)
			c.logf("fleet: %s shard %d: complete", w.Name, shard)
			continue
		}
		c.table.release(shard, gen)
		if ctx.Err() != nil || c.plan.Err() != nil {
			return
		}
		c.logf("fleet: %s shard %d: released: %v", w.Name, shard, err)
		// Sit out one backoff before re-acquiring so a healthy waiting
		// worker wins the re-lease race against the one that just failed.
		if sleep(ctx, c.cfg.Worker.Retry.BaseDelay) != nil {
			return
		}
	}
}

// Run executes spec across cfg.Workers and returns the merged result. The
// checkpoint at cfg.Checkpoint is consulted first (a coordinator killed
// mid-run resumes with zero re-evaluation of merged points) and on success
// holds one record per unit, in unit order, after the records it already
// held (see Config.Checkpoint). A run that merges nothing writes nothing.
func Run(ctx context.Context, spec dse.SweepSpec, cfg Config) (Result, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Workers) == 0 {
		return Result{}, errors.New("fleet: no workers")
	}
	if cfg.Checkpoint == "" {
		return Result{}, errors.New("fleet: checkpoint path required")
	}
	spec = spec.Normalized()
	if spec.Shards != 1 || spec.Shard != 0 {
		return Result{}, fmt.Errorf("fleet: spec is already shard %d/%d; the coordinator owns sharding", spec.Shard, spec.Shards)
	}
	if err := spec.Validate(); err != nil {
		return Result{}, err
	}
	// The file may also hold other seeds, fidelities or points (a shared
	// search checkpoint, an earlier sweep): they stay in place, and the
	// plan's result set holds only the spec's points.
	pc := spec.Config()
	pc.Checkpoint, pc.OnRecord = cfg.Checkpoint, cfg.OnRecord
	plan, err := dse.OpenPlan(spec.Points(), pc)
	if err != nil {
		return Result{}, err
	}
	defer plan.Close()
	// The shard inventory: each shard's units, the points its worker's
	// dse.Sweep evaluates (survivor-restricted for a search rung).
	shards := make([][]int, cfg.Shards)
	for s := range shards {
		shards[s] = plan.ShardUnits(s, cfg.Shards)
	}

	c := &coordinator{
		cfg:      cfg,
		spec:     spec,
		shards:   shards,
		table:    newLeaseTable(cfg.Shards, cfg.LeaseTTL, nil),
		plan:     plan,
		byWorker: map[string]int{},
	}
	// The shards partition the units; those not in Todo were resumed.
	resumed := -len(plan.Todo())
	for i, units := range shards {
		resumed += len(units)
		if c.covered(i) {
			c.table.markDone(i)
		}
	}
	if resumed > 0 {
		c.logf("fleet: resumed %d records from %s (%d/%d shards already complete)",
			resumed, cfg.Checkpoint, cfg.Shards-c.table.remaining(), cfg.Shards)
	}

	reLeases := 0
	if c.table.remaining() > 0 {
		runCtx, cancel := context.WithCancel(ctx)
		defer cancel()
		go func() {
			<-runCtx.Done()
			c.table.close()
		}()

		// The reaper: poll at a fraction of the TTL so a stalled worker is
		// declared dead within ~1.25 lease lifetimes worst case.
		var reapMu sync.Mutex
		reaperDone := make(chan struct{})
		go func() {
			defer close(reaperDone)
			tick := time.NewTicker(cfg.LeaseTTL / 4)
			defer tick.Stop()
			for {
				select {
				case <-runCtx.Done():
					return
				case <-tick.C:
					if reaped := c.table.expireStalled(); len(reaped) > 0 {
						reapMu.Lock()
						reLeases += len(reaped)
						reapMu.Unlock()
						c.logf("fleet: re-leasing stalled shards %v", reaped)
					}
				}
			}
		}()

		var wg sync.WaitGroup
		for i, base := range cfg.Workers {
			wcfg := cfg.Worker
			wcfg.Seed = cfg.Worker.Seed + uint64(i) // decorrelate jitter across workers
			w := NewWorker(base, wcfg)
			wg.Add(1)
			go func() {
				defer wg.Done()
				c.runWorker(runCtx, w)
			}()
		}
		wg.Wait()
		cancel()
		<-reaperDone
	}

	if err := c.plan.Err(); err != nil {
		return Result{}, err
	}
	if err := ctx.Err(); err != nil {
		return Result{}, err
	}
	if n := c.table.remaining(); n > 0 {
		return Result{}, fmt.Errorf("fleet: %d shards incomplete (all workers exhausted)", n)
	}

	set := plan.Result()
	res := Result{
		Records:       set.Records,
		set:           set,
		Points:        len(set.Points),
		Resumed:       resumed,
		Fresh:         set.Evaluated,
		ReLeases:      reLeases,
		WorkerRecords: c.byWorker,
	}
	return res, nil
}

// Workers sorted for deterministic reporting.
func (r Result) WorkerNames() []string {
	names := make([]string, 0, len(r.WorkerRecords))
	for n := range r.WorkerRecords {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
