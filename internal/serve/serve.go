package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"

	"repro/internal/backend"
	"repro/internal/dse"
	"repro/internal/hw"
	"repro/internal/transformer"
)

// maxBodyBytes bounds request documents (specs, evaluate requests).
const maxBodyBytes = 1 << 20

// Server mounts the sweep-serving API over a job manager. Endpoints:
//
//	POST /v1/sweeps               submit a dse.SweepSpec → job status (202 new or revived, 200 existing, 429 full with a backlog-derived Retry-After)
//	POST /v1/searches             submit a dse.SearchSpec (successive-halving search) under the same admission rules
//	GET  /v1/sweeps/{id}          job status (sweep or search — one job table; /v1/searches/{id} is an alias)
//	GET  /v1/sweeps/{id}/records  NDJSON record stream (checkpoint line format), live until the job ends; ?from=N resumes at offset N
//	GET  /v1/sweeps/{id}/frontier live latency/energy Pareto frontier (dse.FrontierJSON)
//	GET  /v1/backends             the backends with option schemas
//	POST /v1/evaluate             evaluate one point on a named backend → record
//	GET  /healthz                 liveness; 503 "draining" once drain has begun
//
// A search job's record stream interleaves every rung's records;
// low-fidelity proxy evaluations carry their "fidelity" tag, so clients that
// want only the full-fidelity survivor records filter on its absence.
//
// The API is for trusted clients (it accepts filesystem attachments like
// checkpoint paths); bind it accordingly.
type Server struct {
	mgr *Manager
}

// NewServer wraps a manager.
func NewServer(m *Manager) *Server { return &Server{mgr: m} }

// Handler returns the route mux.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		// A draining daemon is alive but must stop receiving work: 503 with
		// the literal body "draining" tells load balancers to route new work
		// elsewhere while running jobs finish. (Fleet coordinators learn of
		// the drain from the 503 a submission gets.)
		if s.mgr.Draining() {
			w.WriteHeader(http.StatusServiceUnavailable)
			io.WriteString(w, "draining\n")
			return
		}
		io.WriteString(w, "ok\n")
	})
	mux.HandleFunc("GET /v1/backends", s.backends)
	mux.HandleFunc("POST /v1/sweeps", s.submit)
	mux.HandleFunc("GET /v1/sweeps/{id}", s.status)
	mux.HandleFunc("GET /v1/sweeps/{id}/records", s.records)
	mux.HandleFunc("GET /v1/sweeps/{id}/frontier", s.frontier)
	// Searches share the sweep job table, so the GET routes are aliases —
	// a client may fetch a search job through either path.
	mux.HandleFunc("POST /v1/searches", s.submitSearch)
	mux.HandleFunc("GET /v1/searches/{id}", s.status)
	mux.HandleFunc("GET /v1/searches/{id}/records", s.records)
	mux.HandleFunc("GET /v1/searches/{id}/frontier", s.frontier)
	mux.HandleFunc("POST /v1/evaluate", s.evaluate)
	return mux
}

// writeJSON emits v with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	data, err := json.Marshal(v)
	if err != nil {
		// Unreachable for the fixed response types; keep the wire sane anyway.
		fmt.Fprintf(w, `{"error":%q}`, err.Error())
		return
	}
	w.Write(append(data, '\n'))
}

// writeError emits the error document every non-2xx response uses.
func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, struct {
		Error string `json:"error"`
	}{err.Error()})
}

func (s *Server) submit(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(io.LimitReader(r.Body, maxBodyBytes))
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	spec, err := dse.DecodeSpec(body)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	job, created, err := s.mgr.Submit(spec)
	s.admitted(w, job, created, err)
}

// submitSearch is submit for successive-halving search documents.
func (s *Server) submitSearch(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(io.LimitReader(r.Body, maxBodyBytes))
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	spec, err := dse.DecodeSearchSpec(body)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	job, created, err := s.mgr.SubmitSearch(spec)
	s.admitted(w, job, created, err)
}

// admitted maps an admission outcome onto the wire.
func (s *Server) admitted(w http.ResponseWriter, job *Job, created bool, err error) {
	switch {
	case errors.Is(err, ErrQueueFull):
		// Pace backoff clients by the actual backlog: queue depth × mean
		// completed-sweep duration (floor 1s), not a hardcoded constant.
		secs := int(math.Ceil(s.mgr.RetryAfter().Seconds()))
		w.Header().Set("Retry-After", strconv.Itoa(secs))
		writeError(w, http.StatusTooManyRequests, err)
		return
	case errors.Is(err, ErrClosed):
		writeError(w, http.StatusServiceUnavailable, err)
		return
	case err != nil:
		writeError(w, http.StatusBadRequest, err)
		return
	}
	status := http.StatusOK
	if created {
		status = http.StatusAccepted
	}
	writeJSON(w, status, job.Status())
}

func (s *Server) job(w http.ResponseWriter, r *http.Request) (*Job, bool) {
	j, ok := s.mgr.Get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("serve: unknown sweep %q", r.PathValue("id")))
	}
	return j, ok
}

func (s *Server) status(w http.ResponseWriter, r *http.Request) {
	if j, ok := s.job(w, r); ok {
		writeJSON(w, http.StatusOK, j.Status())
	}
}

// records streams the job's record log as NDJSON — each line is exactly the
// bytes a checkpoint Append would write, so the stream *is* the checkpoint
// wire format — following the job live until it reaches a terminal state.
// ?from=N resumes the stream at record-log offset N, so a reconnecting
// client (the fleet worker client after a network fault) skips the records
// it already holds instead of replaying the log from zero.
// A client that disconnects mid-stream releases its watch; the last watcher
// leaving a running job cancels its sweep (see Job.dropWatcher).
func (s *Server) records(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(w, r)
	if !ok {
		return
	}
	from := 0
	if q := r.URL.Query().Get("from"); q != "" {
		n, err := strconv.Atoi(q)
		if err != nil || n < 0 {
			writeError(w, http.StatusBadRequest, fmt.Errorf("serve: bad from offset %q", q))
			return
		}
		from = n
	}
	j.addWatcher()
	disconnected := false
	defer func() { j.dropWatcher(disconnected) }()

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	if flusher != nil {
		// Push the headers out immediately: a streaming client must see the
		// response open even while the first record is still simulating.
		flusher.Flush()
	}
	next := from
	for {
		recs, state, changed := j.snapshotFrom(next)
		for _, rec := range recs {
			data, err := json.Marshal(rec)
			if err != nil {
				disconnected = true
				return
			}
			if _, err := w.Write(append(data, '\n')); err != nil {
				disconnected = true
				return
			}
		}
		next += len(recs)
		if len(recs) > 0 && flusher != nil {
			flusher.Flush()
		}
		if state.terminal() {
			return
		}
		select {
		case <-r.Context().Done():
			disconnected = true
			return
		case <-changed:
		}
	}
}

func (s *Server) frontier(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(w, r)
	if !ok {
		return
	}
	recs := j.Records()
	data, err := dse.EncodeFrontier(dse.Frontier(recs), len(recs))
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(append(data, '\n'))
}

func (s *Server) backends(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, backend.DescribeAll())
}

// EvaluateRequest asks for one point on one backend. Options, when present,
// must be the backend's strict options document; absent options mean the
// backend's paper defaults.
type EvaluateRequest struct {
	Backend string          `json:"backend,omitempty"` // default "bishop"
	Options json.RawMessage `json:"options,omitempty"`
	Model   int             `json:"model"` // Table 2 index (1–5)
	BSA     bool            `json:"bsa,omitempty"`
	Seed    uint64          `json:"seed,omitempty"` // 0 → 1
}

// evaluate runs a single point synchronously, consulting and feeding the
// result cache; the response body is the evaluation record in checkpoint
// format, and X-Result-Cache reports hit/miss/off.
//
// A cache hit returns the record exactly as the sweep that cached it stored
// it, including that sweep's enumeration index; a miss returns index 0.
// Clients that compare hit bodies byte for byte rely on this, so a hit's
// index is deliberately not rewritten.
func (s *Server) evaluate(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(io.LimitReader(r.Body, maxBodyBytes))
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	var req EvaluateRequest
	if err := hw.DecodeStrict(body, &req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if zoo := len(transformer.ModelZoo()); req.Model < 1 || req.Model > zoo {
		writeError(w, http.StatusBadRequest,
			fmt.Errorf("serve: model %d outside Table 2 range 1–%d", req.Model, zoo))
		return
	}
	name := req.Backend
	if name == "" {
		name = backend.BishopName
	}
	b, err := backend.Decode(name, req.Options)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	seed := req.Seed
	if seed == 0 {
		seed = 1
	}
	p := dse.Point{Model: req.Model, BSA: req.BSA, Backend: b}
	key := dse.DigestKey(p)

	cacheState := "off"
	if c := s.mgr.cfg.Cache; c != nil {
		if rec, ok := c.LoadAt(key, seed, 0); ok {
			w.Header().Set("X-Result-Cache", "hit")
			writeJSON(w, http.StatusOK, rec)
			return
		}
		cacheState = "miss"
	}
	rec := dse.Evaluate(p, seed)
	if c := s.mgr.cfg.Cache; c != nil {
		c.Save(rec) // best-effort, like the sweep path
	}
	w.Header().Set("X-Result-Cache", cacheState)
	writeJSON(w, http.StatusOK, rec)
}
