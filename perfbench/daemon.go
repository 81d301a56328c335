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
	"runtime"
	"sync"
	"time"

	"repro/internal/accel"
	"repro/internal/backend"
	"repro/internal/bundle"
	"repro/internal/dse"
	"repro/internal/hw"
	"repro/internal/serve"
	"repro/internal/transformer"
	"repro/internal/workload"
)

// daemon is one in-process bishopd: a job manager with its result cache
// behind the HTTP handlers on an httptest server.
type daemon struct {
	mgr *serve.Manager
	srv *httptest.Server
}

func startDaemon(cfg serve.ManagerConfig) *daemon {
	m := serve.NewManager(cfg)
	return &daemon{mgr: m, srv: httptest.NewServer(serve.NewServer(m).Handler())}
}

func (d *daemon) close() {
	d.srv.Close()
	d.mgr.Close(context.Background())
}

// daemonModels are the models daemon-mixed specs sweep.
var daemonModels = []int{3, 4}

// daemonMixed is bishopd under two closed-loop clients. Each client loops:
// two sweep submissions (POST /v1/sweeps, then the NDJSON record stream to
// its end) and one POST /v1/evaluate. Every spec has a distinct digest and
// about half of its points are in the result cache from the client's
// previous spec.
type daemonMixed struct {
	d    *daemon // started by setup, consumed by the next measure
	keys []uint64
}

const daemonClients = 2

// daemonRounds splits the closed loop: between rounds the clients pause
// while the reference kernel runs (calib.go).
const daemonRounds = 8

func (dm *daemonMixed) setup(e *env) error {
	dm.close()
	isolate()
	// A running daemon has generated its traces long before a client
	// arrives; warm them so the measured phase sees that steady state.
	dm.keys = nil
	for _, m := range daemonModels {
		cfg := transformer.ModelZoo()[m-1]
		sc := workload.Scenarios()[m]
		for _, bsa := range []bool{false, true} {
			topt := workload.TraceOptions{BSA: bsa}
			workload.CachedTrace(cfg, sc, topt, e.opt.seed)
			dm.keys = append(dm.keys, workload.TraceDigest(cfg, sc, topt, e.opt.seed))
		}
	}
	d, err := dm.start(e, nil)
	dm.d = d
	return err
}

// start launches a daemon with a fresh result cache; a non-nil walker
// replaces serve.Run as the job runner.
func (dm *daemonMixed) start(e *env, w *walker) (*daemon, error) {
	dir, err := e.scratch("daemon-cache")
	if err != nil {
		return nil, err
	}
	cfg := serve.ManagerConfig{Jobs: e.jobs, Cache: &serve.Cache{Dir: dir}}
	if w != nil {
		cfg.RunFunc = w.run
	}
	return startDaemon(cfg), nil
}

func (dm *daemonMixed) close() {
	if dm.d != nil {
		dm.d.close()
		dm.d = nil
	}
}

// clientStats is what one client observed.
type clientStats struct {
	firstMS, doneMS, evalMS []float64
	points, ops             int
	attempted, failed       int
	http429, http5xx        int
	evalHits, wantEvalHits  int
	wantCacheHits           int
	sweepPoints             int
	jobs                    []string
	lines                   [][]byte // streamed record lines
	evals                   []evalCall
	// traced
	submitted map[string]time.Time // job id → POST sent
	received  map[string]time.Time // job id + record key → line read
}

// evalCall is one POST /v1/evaluate and its response body.
type evalCall struct {
	req  serve.EvaluateRequest
	opt  accel.Options
	body []byte
}

func (dm *daemonMixed) measure(e *env, tr *tracer) (*phase, error) {
	d := dm.d
	dm.d = nil
	var w *walker
	emitted := &timeLog{m: map[string]time.Time{}}
	if tr != nil || d == nil {
		if d != nil {
			d.close()
		}
		var err error
		if tr != nil {
			w = tr.walker(0)
			w.markInMemory(dm.keys...)
			w.onEmit = func(job string, rec dse.Record) { emitted.put(job + recordKey(rec.Digest, rec.Fidelity)) }
		}
		if d, err = dm.start(e, w); err != nil {
			return nil, err
		}
	}
	defer d.close()

	hc := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: daemonClients * 2}}
	defer hc.CloseIdleConnections()
	stats := make([]*clientStats, daemonClients)
	clients := make([]*client, daemonClients)
	for c := range stats {
		stats[c] = &clientStats{submitted: map[string]time.Time{}, received: map[string]time.Time{}}
		clients[c] = &client{hc: hc, url: d.srv.URL, gen: newSpecGen(e.opt.seed, c, e.opt.tiny), st: stats[c], traced: tr != nil}
	}
	ph := &phase{closedLoop: true}
	c0 := readCounters()
	roundLen := time.Duration(e.opt.seconds / daemonRounds * float64(time.Second))
	for r := 0; r < daemonRounds; r++ {
		if err := e.calibrate(); err != nil {
			return nil, err
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		start := time.Now()
		deadline := start.Add(roundLen)
		var wg sync.WaitGroup
		for _, cl := range clients {
			wg.Add(1)
			go func(cl *client) {
				defer wg.Done()
				cl.round(deadline)
			}(cl)
		}
		wg.Wait()
		ph.wall += time.Since(start).Seconds()
		runtime.ReadMemStats(&after)
		ph.allocBytes += after.TotalAlloc - before.TotalAlloc
	}
	ph.counters = readCounters().minus(c0)

	var wantHits, sweepPoints, hits429, hits5xx, evalHits, evals int
	var queueWait, streamDelay []float64
	for _, st := range stats {
		ph.firstMS = append(ph.firstMS, st.firstMS...)
		ph.doneMS = append(ph.doneMS, st.doneMS...)
		ph.evalMS = append(ph.evalMS, st.evalMS...)
		ph.ops += st.ops
		ph.points += st.points
		ph.attempted += st.attempted
		ph.failed += st.failed
		wantHits += st.wantCacheHits
		sweepPoints += st.sweepPoints
		hits429 += st.http429
		hits5xx += st.http5xx
		evalHits += st.evalHits
		evals += len(st.evalMS)
		if st.evalHits != st.wantEvalHits {
			return nil, checkf("daemon-mixed: %d evaluate cache hits, the generator planned %d", st.evalHits, st.wantEvalHits)
		}
		if tr != nil {
			for job, t := range st.submitted {
				if run, ok := w.runStart(job); ok {
					queueWait = append(queueWait, ms(run.Sub(t)))
				}
			}
			for key, t := range st.received {
				if t0, ok := emitted.get(key); ok {
					streamDelay = append(streamDelay, ms(t.Sub(t0)))
				}
			}
		}
	}
	if err := dm.check(e, d, stats, wantHits, sweepPoints); err != nil {
		return nil, err
	}
	if tr != nil {
		ph.layer = map[string]float64{
			"serve.queue_wait_ms_p50":        quantile(queueWait, 0.5),
			"serve.queue_wait_ms_p90":        quantile(queueWait, 0.9),
			"serve.run_ms_p50":               median(w.runDurationsMS()),
			"serve.stream_delay_ms_p50":      median(streamDelay),
			"serve.evaluate_cache_hit_ratio": ratio(float64(evalHits), float64(evals)),
			"serve.http_429":                 float64(hits429),
			"serve.http_5xx":                 float64(hits5xx),
		}
	}
	return ph, nil
}

// check verifies the daemon's outputs: every job finished with its points
// split between cache hits and fresh evaluations as the generator planned,
// and a seeded sample of streamed records and evaluate bodies equals direct
// dse.Evaluate output byte for byte.
func (dm *daemonMixed) check(e *env, d *daemon, stats []*clientStats, wantHits, sweepPoints int) error {
	hits, points := 0, 0
	for _, st := range stats {
		for _, id := range st.jobs {
			j, ok := d.mgr.Get(id)
			if !ok {
				return checkf("daemon-mixed: job %s unknown to the manager", id)
			}
			s := j.Status()
			if s.State != serve.StateDone || s.Evaluated+s.CacheHits != s.Points {
				return checkf("daemon-mixed: job %s ended %s with %d evaluated + %d cache hits of %d points",
					id, s.State, s.Evaluated, s.CacheHits, s.Points)
			}
			hits += s.CacheHits
			points += s.Points
		}
	}
	if hits != wantHits || points != sweepPoints {
		return checkf("daemon-mixed: %d of %d sweep points served from the cache, the generator planned %d of %d",
			hits, points, wantHits, sweepPoints)
	}
	g := newRNG(e.opt.seed, 3)
	for _, st := range stats {
		for i := 0; i < 6 && len(st.lines) > 0; i++ {
			line := st.lines[g.intn(len(st.lines))]
			rec, ok := dse.ParseRecordLine(line)
			if !ok {
				return checkf("daemon-mixed: malformed streamed line %q", line)
			}
			if err := sameAsDirect(rec.Point(), e.opt.seed, rec.Index, line); err != nil {
				return err
			}
		}
		for i := 0; i < 4 && len(st.evals) > 0; i++ {
			ev := st.evals[g.intn(len(st.evals))]
			body := bytes.TrimSuffix(ev.body, []byte("\n"))
			rec, ok := dse.ParseRecordLine(body)
			if !ok {
				return checkf("daemon-mixed: malformed evaluate body %q", body)
			}
			// A cache hit returns the record as the sweep that cached it
			// stored it, enumeration index included.
			p := dse.Point{Model: ev.req.Model, BSA: ev.req.BSA, Backend: backend.Bishop{Opt: ev.opt}}
			if err := sameAsDirect(p, e.opt.seed, rec.Index, body); err != nil {
				return err
			}
		}
	}
	return nil
}

// sameAsDirect requires served to be the bytes of dse.Evaluate(p, seed)
// with the given index.
func sameAsDirect(p dse.Point, seed uint64, index int, served []byte) error {
	rec := dse.Evaluate(p, seed)
	rec.Index = index
	direct, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	if !bytes.Equal(served, direct) {
		return checkf("record for %s differs from dse.Evaluate:\nserved %s\ndirect %s", rec.Digest, served, direct)
	}
	return nil
}

// timeLog is a concurrent map of event times.
type timeLog struct {
	mu sync.Mutex
	m  map[string]time.Time
}

func (l *timeLog) put(key string) {
	t := time.Now()
	l.mu.Lock()
	l.m[key] = t
	l.mu.Unlock()
}

func (l *timeLog) get(key string) (time.Time, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	t, ok := l.m[key]
	return t, ok
}

// client is one closed-loop daemon client.
type client struct {
	hc     *http.Client
	url    string
	gen    *specGen
	st     *clientStats
	traced bool
	k      int // operations started
}

// round runs the client's closed loop until the deadline; the operation in
// flight at the deadline completes.
func (c *client) round(deadline time.Time) {
	for time.Now().Before(deadline) {
		c.st.attempted++
		var err error
		if c.k%3 == 2 {
			err = c.evaluate()
		} else {
			err = c.sweep()
		}
		c.k++
		if err != nil {
			c.st.failed++
			continue
		}
		c.st.ops++
	}
}

// sweep submits the next spec and streams its records to the end.
func (c *client) sweep() error {
	spec, wantHits := c.gen.nextSpec()
	body, err := dse.EncodeSpec(spec)
	if err != nil {
		return err
	}
	t0 := time.Now()
	resp, err := c.hc.Post(c.url+"/v1/sweeps", "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	if err := c.status(resp.StatusCode, http.StatusAccepted); err != nil {
		return err
	}
	var st serve.JobStatus
	if err := json.Unmarshal(data, &st); err != nil {
		return err
	}
	if c.traced {
		c.st.submitted[st.ID] = t0
	}
	resp, err = c.hc.Get(c.url + "/v1/sweeps/" + st.ID + "/records")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if err := c.status(resp.StatusCode, http.StatusOK); err != nil {
		return err
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<16), 1<<24)
	var first time.Duration
	var recs []dse.Record
	for sc.Scan() {
		if len(recs) == 0 {
			first = time.Since(t0)
		}
		line := append([]byte(nil), sc.Bytes()...)
		rec, ok := dse.ParseRecordLine(line)
		if !ok {
			return fmt.Errorf("malformed record line %q", line)
		}
		if c.traced {
			c.st.received[st.ID+recordKey(rec.Digest, rec.Fidelity)] = time.Now()
		}
		recs = append(recs, rec)
		c.st.lines = append(c.st.lines, line)
	}
	if err := sc.Err(); err != nil {
		return err
	}
	done := time.Since(t0)
	if len(recs) != st.Points {
		return fmt.Errorf("job %s streamed %d of %d records", st.ID, len(recs), st.Points)
	}
	c.gen.completed(recs)
	c.st.firstMS = append(c.st.firstMS, ms(first))
	c.st.doneMS = append(c.st.doneMS, ms(done))
	c.st.points += len(recs)
	c.st.sweepPoints += st.Points
	c.st.wantCacheHits += wantHits
	c.st.jobs = append(c.st.jobs, st.ID)
	return nil
}

// evaluate posts one single-point evaluation.
func (c *client) evaluate() error {
	req, opt, wantHit := c.gen.nextEval()
	body, err := json.Marshal(req)
	if err != nil {
		return err
	}
	t0 := time.Now()
	resp, err := c.hc.Post(c.url+"/v1/evaluate", "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	d := time.Since(t0)
	if err != nil {
		return err
	}
	if err := c.status(resp.StatusCode, http.StatusOK); err != nil {
		return err
	}
	c.st.evalMS = append(c.st.evalMS, ms(d))
	c.st.points++
	if wantHit {
		c.st.wantEvalHits++
	}
	if resp.Header.Get("X-Result-Cache") == "hit" {
		c.st.evalHits++
	}
	c.st.evals = append(c.st.evals, evalCall{req: req, opt: opt, body: data})
	return nil
}

func (c *client) status(got, want int) error {
	switch {
	case got == want:
		return nil
	case got == http.StatusTooManyRequests:
		c.st.http429++
	case got >= 500:
		c.st.http5xx++
	}
	return fmt.Errorf("HTTP status %d, want %d", got, want)
}

// family is a chain of sub-grid specs over a fixed model, BSA set, shape
// pair and balancing split target. Spec j of the chain sweeps ECP
// thresholds {j, j+1}: the θ=j column was evaluated by spec j-1, so from
// the second spec on half of every spec's points are result-cache hits.
// Each family has a split target of its own, so no two families share a
// point.
type family struct {
	model  int
	bsa    []bool
	shapes []bundle.Shape
	split  float64
	next   int // next spec's lower ECP threshold
	left   int // specs left in the chain
}

// specGen generates one client's operations from the workload seed.
type specGen struct {
	g      *rng
	seed   uint64
	shift  int // seed-derived offset into the shape and split sequences
	client int
	fams   int // families started
	fam    *family
	done   []dse.Record // records this client has streamed
	evals  int          // evaluate requests made
	tiny   bool
}

// familyLength is the number of specs in a family chain.
const familyLength = 8

var (
	bsaSets    = [][]bool{{false}, {true}, {false, true}}
	shapePairs = [][2]int{{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}}
)

func newSpecGen(seed uint64, client int, tiny bool) *specGen {
	return &specGen{g: newRNG(seed, uint64(10+client)), seed: seed, shift: newRNG(seed, 9).intn(1 << 20),
		client: client, tiny: tiny}
}

// uniqueSplit returns the k-th value of a low-discrepancy sequence in
// [lo, lo+width): distinct k give distinct split targets.
func uniqueSplit(k int, lo, width float64) float64 {
	const phi = 0.6180339887498949
	x := float64(k+1) * phi
	return lo + width*(x-float64(int64(x)))
}

// nextSpec returns the next sweep spec and how many of its points the
// result cache should serve. Families cycle through every model × BSA-set
// combination in a fixed order, so each seed runs the same mix of spec
// sizes and model costs; the seed moves the trace seed, the shape pairs and
// the split targets.
func (s *specGen) nextSpec() (dse.SweepSpec, int) {
	if s.fam == nil || s.fam.left == 0 {
		k := s.fams
		pair := shapePairs[(k/len(bsaSets)+s.shift)%len(shapePairs)]
		s.fam = &family{
			model:  daemonModels[(k+s.client)%len(daemonModels)],
			bsa:    bsaSets[k%len(bsaSets)],
			shapes: []bundle.Shape{allShapes[pair[0]], allShapes[pair[1]]},
			// Split targets in [0.25, 0.75) are the clients' families,
			// interleaved so the clients never share one.
			split: uniqueSplit(daemonClients*(k+s.shift)+s.client, 0.25, 0.5),
			left:  familyLength,
		}
		if s.tiny {
			s.fam.model = 4
		}
		s.fams++
	}
	f := s.fam
	spec := dse.SweepSpec{
		Space: dse.Space{Models: []int{f.model}, BSA: f.bsa, Shapes: f.shapes, SplitTargets: []float64{f.split},
			ECPThetas: []int{f.next, f.next + 1}},
		Seed: s.seed,
	}
	hits := 0
	if f.next > 0 {
		hits = len(spec.Points()) / 2
	}
	f.next++
	f.left--
	return spec, hits
}

func (s *specGen) completed(recs []dse.Record) { s.done = append(s.done, recs...) }

// nextEval returns the next evaluate request: every third re-asks for a
// point this client's sweeps produced (a cache hit), the rest ask for a
// point no sweep covers (a miss, simulated in the request), cycling through
// the models, BSA settings and shapes.
func (s *specGen) nextEval() (serve.EvaluateRequest, accel.Options, bool) {
	k := s.evals
	s.evals++
	req := serve.EvaluateRequest{Backend: backend.BishopName, Seed: s.seed}
	var opt accel.Options
	hit := k%3 == 0 && len(s.done) > 0
	if hit {
		rec := s.done[s.g.intn(len(s.done))]
		req.Model, req.BSA, opt = rec.Model, rec.BSA, *rec.Opt
	} else {
		req.Model = daemonModels[k%len(daemonModels)]
		if s.tiny {
			req.Model = 4
		}
		req.BSA = k/2%2 == 1
		sh := allShapes[(k/4+s.shift)%len(allShapes)]
		// Split targets in [0.05, 0.25) belong to no family.
		opt = accel.Options{Tech: hw.Default28nm(), Array: hw.BishopArray(), Shape: sh, Stratify: true,
			ThetaS: -1, SplitTarget: uniqueSplit(daemonClients*(k+s.shift)+s.client, 0.05, 0.2)}
		if k%4 < 2 {
			opt.ECP = &bundle.ECPConfig{Shape: sh, ThetaQ: 6, ThetaK: 6}
		}
	}
	doc, err := accel.EncodeOptions(opt)
	if err != nil {
		panic(err) // unreachable: plain option values always encode
	}
	req.Options = doc
	return req, opt, hit
}
