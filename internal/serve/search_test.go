package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"

	"repro/internal/dse"
)

// tinySearch is the smallest search worth serving: 4 bishop points halved
// through a {8, 1} ladder, so 2 survivors reach full fidelity.
func tinySearch() dse.SearchSpec {
	return dse.SearchSpec{
		Space: dse.Space{Models: []int{4}, ECPThetas: []int{0, 4, 6, 10}},
		Seed:  1, Rungs: []int{8, 1}, Eta: 2,
	}
}

// TestCacheFidelityScoped pins the result-cache identity rule: records of
// the same point at different fidelities are different entries, a lookup
// only answers at its own fidelity, and fidelities 0 and 1 both name the
// full-fidelity entry.
func TestCacheFidelityScoped(t *testing.T) {
	c := &Cache{Dir: t.TempDir()}
	p := tinySearch().Points()[0]
	key := fmt.Sprintf("%016x", p.Digest())

	full := dse.Evaluate(p, 1)
	proxy := dse.EvaluateAt(p, 1, 8)
	if err := c.Save(full); err != nil {
		t.Fatal(err)
	}
	if err := c.Save(proxy); err != nil {
		t.Fatal(err)
	}
	if rec, ok := c.LoadAt(key, 1, 0); !ok || rec.Fidelity != 0 {
		t.Fatalf("full-fidelity lookup: ok=%v fidelity=%d", ok, rec.Fidelity)
	}
	if rec, ok := c.LoadAt(key, 1, 1); !ok || rec.Fidelity != 0 {
		t.Fatalf("fidelity-1 lookup: ok=%v fidelity=%d, want the full-fidelity record", ok, rec.Fidelity)
	}
	if rec, ok := c.LoadAt(key, 1, 8); !ok || rec.Fidelity != 8 {
		t.Fatalf("fidelity-8 lookup: ok=%v fidelity=%d", ok, rec.Fidelity)
	}
	if _, ok := c.LoadAt(key, 1, 4); ok {
		t.Fatal("fidelity-4 lookup must miss: no such record was saved")
	}
	if _, ok := c.LoadAt(key, 2, 0); ok {
		t.Fatal("seed-2 lookup must miss the seed-1 record")
	}
}

// TestRunSearchCacheReplay pins the daemon-side resume story: re-running a
// search against a warm result cache answers every rung from disk — zero
// fresh simulations at any fidelity.
func TestRunSearchCacheReplay(t *testing.T) {
	opt := RunOptions{Cache: &Cache{Dir: t.TempDir()}}
	first, err := RunSearch(context.Background(), tinySearch(), opt)
	if err != nil {
		t.Fatal(err)
	}
	if first.Search == nil || first.Search.Evaluated == 0 {
		t.Fatalf("cold search evaluated nothing: %+v", first.Search)
	}
	if first.Set == nil || len(first.Set.Records) != 2 {
		t.Fatalf("final set %+v, want the 2 survivors", first.Set)
	}

	second, err := RunSearch(context.Background(), tinySearch(), opt)
	if err != nil {
		t.Fatal(err)
	}
	if second.Search.Evaluated != 0 {
		t.Fatalf("warm search re-simulated %d points, want 0", second.Search.Evaluated)
	}
	if second.CacheHits == 0 {
		t.Fatal("warm search reported no cache hits")
	}
	if len(second.Set.Records) != len(first.Set.Records) {
		t.Fatal("warm search survivors differ from the cold run")
	}
	for i := range first.Set.Records {
		a, _ := json.Marshal(first.Set.Records[i])
		b, _ := json.Marshal(second.Set.Records[i])
		if string(a) != string(b) {
			t.Fatalf("survivor %d drifted across the cache replay:\n%s\n%s", i, a, b)
		}
	}
}

// TestSearchEndpoint drives POST /v1/searches end to end: admission is
// idempotent on the spec digest, the status reports kind "search", the
// record stream carries fidelity-tagged proxy lines plus untagged survivor
// lines, and the frontier document is non-empty.
func TestSearchEndpoint(t *testing.T) {
	ts, _ := newTestServer(t, ManagerConfig{})
	spec := tinySearch()
	data, err := dse.EncodeSearchSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	post := func() (int, JobStatus) {
		resp, err := http.Post(ts.URL+"/v1/searches", "application/json", strings.NewReader(string(data)))
		if err != nil {
			t.Fatalf("submit search: %v", err)
		}
		defer resp.Body.Close()
		var st JobStatus
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatalf("decode status: %v", err)
		}
		return resp.StatusCode, st
	}
	code, st := post()
	if code != http.StatusAccepted {
		t.Fatalf("first submit: status %d want 202", code)
	}
	if st.ID != spec.ID() || st.Kind != "search" {
		t.Fatalf("status %+v, want id %s kind search", st, spec.ID())
	}

	// The stream follows the job across every rung and ends when it does.
	resp, err := http.Get(ts.URL + "/v1/searches/" + st.ID + "/records")
	if err != nil {
		t.Fatalf("stream: %v", err)
	}
	streamed, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("stream read: %v", err)
	}
	var tagged, untagged int
	for _, line := range sortedLines(t, streamed) {
		if strings.Contains(line, `"fidelity"`) {
			tagged++
		} else {
			untagged++
		}
	}
	if tagged != 4 || untagged != 2 {
		t.Fatalf("stream carried %d proxy + %d full-fidelity records, want 4 + 2", tagged, untagged)
	}

	// Resubmitting the identical document joins the existing job.
	code, again := post()
	if code != http.StatusOK || again.ID != st.ID {
		t.Fatalf("resubmit: status %d id %s, want 200 with id %s", code, again.ID, st.ID)
	}

	fresp, err := http.Get(ts.URL + "/v1/searches/" + st.ID + "/frontier")
	if err != nil {
		t.Fatalf("frontier: %v", err)
	}
	fbody, _ := io.ReadAll(fresp.Body)
	fresp.Body.Close()
	if !strings.Contains(string(fbody), `"digest"`) {
		t.Fatalf("frontier document empty: %s", fbody)
	}

	// A sweep submitted through /v1/sweeps stays kind-less: the tag exists
	// so clients can tell the two job types apart in one table.
	sw := submitSpec(t, ts, tinySpec())
	if sw.Kind != "" {
		t.Fatalf("sweep job reported kind %q, want empty", sw.Kind)
	}
}

// TestSearchEndpointRejectsBadDocument pins strict admission for searches.
func TestSearchEndpointRejectsBadDocument(t *testing.T) {
	ts, _ := newTestServer(t, ManagerConfig{})
	for name, body := range map[string]string{
		"unknown field": `{"space":{},"bogus":1}`,
		"bad ladder":    `{"space":{},"rungs":[4,8,1]}`,
		"bad objective": `{"space":{},"objective":"fastest"}`,
	} {
		resp, err := http.Post(ts.URL+"/v1/searches", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d want 400", name, resp.StatusCode)
		}
	}
}
