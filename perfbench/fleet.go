package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/accel"
	"repro/internal/dse"
	"repro/internal/fleet"
	"repro/internal/serve"
)

// fleetShards is the shard count the coordinator leases out.
const fleetShards = 8

// fleetMerge is fleet.Run over two in-process bishopd workers (one
// evaluator each) sharing a result cache that setup fills with every point
// of the sweep, so the measured phase simulates nothing: it measures
// leasing, HTTP submit and stream, line parsing, digest dedup, fsynced
// merge appends and the final compaction.
type fleetMerge struct {
	spec     dse.SweepSpec
	cacheDir string
	ref      []byte            // unsharded serve.Run checkpoint, in enumeration order
	lines    map[string][]byte // its lines by record key
	probes   []probe
}

func (f *fleetMerge) setup(e *env) error {
	isolate()
	space := dse.Space{Models: models(e.opt.tiny), BSA: []bool{false, true}, Shapes: allShapes,
		ECPThetas: []int{0, 4, 6, 8}, Stratify: []bool{true, false}}
	if e.opt.tiny {
		space.Shapes, space.ECPThetas = allShapes[:2], []int{0, 6}
	}
	f.spec = dse.SweepSpec{Space: space, Seed: e.opt.seed}
	dir, err := e.scratch("fleet-cache")
	if err != nil {
		return err
	}
	f.cacheDir = dir
	ref := f.spec
	ref.Checkpoint = filepath.Join(dir, "..", filepath.Base(dir)+".ckpt")
	ref.Jobs = e.jobs
	if _, err := serve.Run(context.Background(), ref, serve.RunOptions{Cache: &serve.Cache{Dir: dir}}); err != nil {
		return fmt.Errorf("filling the result cache: %w", err)
	}
	recs, err := dse.LoadCheckpoint(ref.Checkpoint)
	if err != nil {
		return err
	}
	// The sweep appends in completion order; fleet.Run compacts into
	// enumeration order. Same lines, ordered by index.
	sort.Slice(recs, func(a, b int) bool { return recs[a].Index < recs[b].Index })
	_, f.lines, err = checkpointLines(ref.Checkpoint)
	if err != nil {
		return err
	}
	var buf bytes.Buffer
	for _, r := range recs {
		buf.Write(f.lines[recordKey(r.Digest, r.Fidelity)])
		buf.WriteByte('\n')
	}
	f.ref = buf.Bytes()
	f.probes = fixedProbes(f.spec.Points(), 0)
	isolate()
	return nil
}

func (f *fleetMerge) measure(e *env, tr *tracer) (*phase, error) {
	ph := &phase{}
	ctx := context.Background()
	var gaps, firsts, tails, balance []float64
	merged, releases, appends := 0, 0, 0
	for i, start := 0, time.Now(); more(e, i, start); i++ {
		dir, err := e.scratch("fleet")
		if err != nil {
			return nil, err
		}
		var op *active
		var workers []*daemon
		var urls []string
		if tr != nil {
			op = tr.rec.start("op", 0, f.spec.ID())
		}
		for k := 0; k < 2; k++ {
			cfg := serve.ManagerConfig{Jobs: 1, Cache: &serve.Cache{Dir: f.cacheDir}}
			if tr != nil {
				cfg.RunFunc = tr.walker(op.id()).run
			}
			d := startDaemon(cfg)
			workers = append(workers, d)
			urls = append(urls, d.srv.URL)
		}
		ckpt := filepath.Join(dir, "merged.ckpt")
		var arrivals []time.Time
		var res fleet.Result
		var t0 time.Time
		n, err := timedOp(e, ph, func(onRecord func(dse.Record)) (err error) {
			t0 = time.Now()
			res, err = fleet.Run(ctx, f.spec, fleet.Config{Workers: urls, Shards: fleetShards, Checkpoint: ckpt,
				OnRecord: func(rec dse.Record) {
					arrivals = append(arrivals, time.Now())
					onRecord(rec)
				}})
			return err
		})
		end := time.Now()
		ph.counters = ph.counters.plus(readCounters())
		if op != nil {
			op.end()
		}
		if err == nil {
			err = f.check(e, ph, workers, ckpt, res, n)
		}
		for _, d := range workers {
			d.close()
		}
		if err != nil {
			if isCheck(err) {
				return nil, err
			}
			fmt.Fprintf(os.Stderr, "perfbench: fleet-merge operation failed: %v\n", err)
			continue
		}
		merged += n
		appends += n + len(res.Records) // merge appends, then the compaction rewrite
		releases += res.ReLeases
		if len(arrivals) > 0 {
			firsts = append(firsts, ms(arrivals[0].Sub(t0)))
			tails = append(tails, ms(end.Sub(arrivals[len(arrivals)-1])))
			for k := 1; k < len(arrivals); k++ {
				gaps = append(gaps, ms(arrivals[k].Sub(arrivals[k-1])))
			}
		}
		lo, hi := -1, 0
		for _, c := range res.WorkerRecords {
			if lo < 0 || c < lo {
				lo = c
			}
			hi = max(hi, c)
		}
		if len(res.WorkerRecords) < 2 {
			lo = 0
		}
		balance = append(balance, ratio(float64(lo), float64(hi)))
		os.RemoveAll(dir)
	}
	if tr != nil {
		ph.layer = map[string]float64{
			"fleet.merged_records":           float64(merged),
			"fleet.merge_gap_ms_p50":         median(gaps),
			"fleet.first_record_ms":          median(firsts),
			"fleet.tail_ms":                  median(tails),
			"fleet.releases":                 float64(releases),
			"fleet.worker_balance":           median(balance),
			"dse.checkpoint_appends":         float64(appends),
			"serve.evaluate_cache_hit_ratio": ratio(float64(ph.evalHits), float64(len(ph.evalMS))),
		}
	}
	return ph, nil
}

// check verifies one fleet run: the merged checkpoint is byte-identical to
// the unsharded serve.Run checkpoint, no worker evaluated a point, and
// POST /v1/evaluate on a worker returns the reference records.
func (f *fleetMerge) check(e *env, ph *phase, workers []*daemon, ckpt string, res fleet.Result, n int) error {
	got, err := os.ReadFile(ckpt)
	if err != nil {
		return err
	}
	if !bytes.Equal(got, f.ref) {
		return checkf("fleet-merge: merged checkpoint (%d bytes) differs from the unsharded serve.Run checkpoint (%d bytes)",
			len(got), len(f.ref))
	}
	if n != len(res.Records) || res.Fresh != n {
		return checkf("fleet-merge: %d records merged, %d fresh, want %d", n, res.Fresh, len(res.Records))
	}
	for s := 0; s < fleetShards; s++ {
		spec := f.spec.Normalized()
		spec.Shard, spec.Shards = s, fleetShards
		found := false
		for _, d := range workers {
			if j, ok := d.mgr.Get(spec.ID()); ok {
				found = true
				if st := j.Status(); st.Evaluated != 0 {
					return checkf("fleet-merge: shard %d evaluated %d points, want 0 (all cached)", s, st.Evaluated)
				}
			}
		}
		if !found {
			return checkf("fleet-merge: no worker ran shard %d", s)
		}
	}
	return f.evaluateProbes(e, ph, workers[0].srv.URL)
}

// evaluateProbes posts each probe to a worker's /v1/evaluate and requires
// the body to be the reference record.
func (f *fleetMerge) evaluateProbes(e *env, ph *phase, url string) error {
	for _, pb := range f.probes {
		doc, err := accel.EncodeOptions(pb.p.Opt)
		if err != nil {
			return err
		}
		body, err := json.Marshal(serve.EvaluateRequest{Backend: "bishop", Options: doc, Model: pb.p.Model,
			BSA: pb.p.BSA, Seed: e.opt.seed})
		if err != nil {
			return err
		}
		t0 := time.Now()
		resp, err := http.Post(url+"/v1/evaluate", "application/json", bytes.NewReader(body))
		if err != nil {
			return err
		}
		data, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		ph.evalMS = append(ph.evalMS, ms(time.Since(t0)))
		if err != nil {
			return err
		}
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("evaluate: HTTP status %d", resp.StatusCode)
		}
		if resp.Header.Get("X-Result-Cache") == "hit" {
			ph.evalHits++
		}
		// The cache holds the record the reference sweep published, index
		// included, so the body is the reference line.
		if want := f.lines[recordKey(dse.DigestKey(pb.p), 0)]; !bytes.Equal(bytes.TrimSuffix(data, []byte("\n")), want) {
			return checkf("fleet-merge: evaluate body %s differs from the reference record %s", data, want)
		}
	}
	return nil
}

func (f *fleetMerge) close() {}
