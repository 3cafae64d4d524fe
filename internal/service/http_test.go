package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/fault"
)

// newTestServer starts a Service (real DefaultRunner unless overridden)
// behind httptest.
func newTestServer(t *testing.T, cfg Config) (*Service, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(NewHandler(s))
	t.Cleanup(func() {
		ts.Close()
		shutdown(t, s)
	})
	return s, ts
}

func postJob(t *testing.T, ts *httptest.Server, spec Spec) (int, Submission) {
	t.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sub Submission
	if err := json.NewDecoder(resp.Body).Decode(&sub); err != nil {
		t.Fatalf("decode submission: %v", err)
	}
	return resp.StatusCode, sub
}

func getJob(t *testing.T, ts *httptest.Server, id string) (int, JobView) {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var v JobView
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatalf("decode job view: %v", err)
	}
	return resp.StatusCode, v
}

// pollDone polls GET until the job is done, failing on any other
// terminal state.
func pollDone(t *testing.T, ts *httptest.Server, id string) JobView {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		code, v := getJob(t, ts, id)
		if code != http.StatusOK {
			t.Fatalf("GET %s: status %d", id, code)
		}
		if v.State == StateDone {
			return v
		}
		if v.State.Terminal() {
			t.Fatalf("job %s ended %q: %s", id, v.State, v.Error)
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s never completed", id)
	return JobView{}
}

// TestHTTPSubmitPollResultRoundTrip drives the real simulator end to end
// through the HTTP API, then verifies the acceptance property: a second
// identical POST is a cache hit with byte-identical result.
func TestHTTPSubmitPollResultRoundTrip(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2, QueueCapacity: 8})

	spec := tinySpec(1)
	spec.Replicas = 2
	code, sub := postJob(t, ts, spec)
	if code != http.StatusAccepted {
		t.Fatalf("POST status = %d, want 202", code)
	}
	if sub.ID == "" || sub.Fingerprint == "" || sub.CacheHit || sub.Deduped {
		t.Fatalf("unexpected submission: %+v", sub)
	}

	v := pollDone(t, ts, sub.ID)
	if len(v.Result) == 0 {
		t.Fatal("done job carries no result")
	}
	var res Result
	if err := json.Unmarshal(v.Result, &res); err != nil {
		t.Fatalf("result payload: %v", err)
	}
	if res.Fingerprint != sub.Fingerprint {
		t.Errorf("result fingerprint %q != submission %q", res.Fingerprint, sub.Fingerprint)
	}
	if res.Replicas.Completed != 2 || len(res.Runs) != 2 {
		t.Fatalf("replicas completed %d, runs %d, want 2/2", res.Replicas.Completed, len(res.Runs))
	}
	if res.Runs[0].Sweeps == 0 || res.Runs[0].ScrubVisits == 0 {
		t.Errorf("run metrics look empty: %+v", res.Runs[0])
	}
	if res.Runs[0].Workload != "db-oltp" {
		t.Errorf("workload = %q", res.Runs[0].Workload)
	}

	// Second identical POST: one simulator execution total; the cache
	// answers with identical result bytes.
	code2, sub2 := postJob(t, ts, spec)
	if code2 != http.StatusOK || !sub2.CacheHit {
		t.Fatalf("resubmit: status %d, %+v, want 200 cache hit", code2, sub2)
	}
	_, v2 := getJob(t, ts, sub2.ID)
	if !bytes.Equal(v.Result, v2.Result) {
		t.Error("cache hit returned different result bytes")
	}
}

// TestHTTPCancelRunningJob covers the acceptance property: DELETE on a
// running job returns it in state cancelled, and the daemon stays up.
func TestHTTPCancelRunningJob(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueCapacity: 8})

	// A practically unbounded horizon: only cancellation ends this job.
	spec := tinySpec(1)
	spec.HorizonSec = 1e9
	code, sub := postJob(t, ts, spec)
	if code != http.StatusAccepted {
		t.Fatalf("POST status = %d", code)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		_, v := getJob(t, ts, sub.ID)
		if v.State == StateRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job never started (state %q)", v.State)
		}
		time.Sleep(2 * time.Millisecond)
	}

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+sub.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var v JobView
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || v.State != StateCancelled {
		t.Fatalf("DELETE: status %d state %q, want 200 cancelled", resp.StatusCode, v.State)
	}

	// The daemon survived: health is green and a fresh tiny job completes.
	hr, err := http.Get(ts.URL + "/healthz")
	if err != nil || hr.StatusCode != http.StatusOK {
		t.Fatalf("healthz after cancel: %v %v", err, hr)
	}
	hr.Body.Close()
	code3, sub3 := postJob(t, ts, tinySpec(2))
	if code3 != http.StatusAccepted {
		t.Fatalf("post after cancel: %d", code3)
	}
	pollDone(t, ts, sub3.ID)
}

func TestHTTPValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})

	for name, body := range map[string]string{
		"malformed":     `{"workload":`,
		"unknown field": `{"workload":"db-oltp","bogus":1}`,
		"bad workload":  `{"workload":"nope"}`,
		"neg horizon":   `{"workload":"db-oltp","horizon_sec":-5}`,
		"geometry overflow": `{"workload":"db-oltp","geometry":{"channels":4294967296,"ranks_per_chan":4294967296,` +
			`"banks_per_rank":1,"rows_per_bank":1,"lines_per_row":1,"line_bytes":64}}`,
	} {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, resp.StatusCode)
		}
	}

	if code, _ := getJob(t, ts, "job-424242"); code != http.StatusNotFound {
		t.Errorf("GET unknown job: %d, want 404", code)
	}
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/job-424242", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("DELETE unknown job: %d, want 404", resp.StatusCode)
	}
}

func TestHTTPQueueFullReturns429(t *testing.T) {
	r := newBlockingRunner()
	_, ts := newTestServer(t, Config{Workers: 1, QueueCapacity: 1, Runner: r.run})
	defer close(r.release)

	postJob(t, ts, tinySpec(1))
	<-r.started
	postJob(t, ts, tinySpec(2)) // fills the queue
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json",
		strings.NewReader(`{"workload":"db-oltp","seed":3}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow POST: %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
}

// TestHTTPHealthz pins the extended health report: status, role, uptime,
// and — when configured as a coordinator — the live-worker count.
func TestHTTPHealthz(t *testing.T) {
	s := New(Config{Workers: 1, Runner: (&countingRunner{}).run})
	t.Cleanup(func() { shutdown(t, s) })
	ts := httptest.NewServer(NewHandlerWith(s, HandlerConfig{
		Role:        "coordinator",
		LiveWorkers: func() int { return 3 },
	}))
	t.Cleanup(ts.Close)

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var h Health
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.Role != "coordinator" {
		t.Errorf("health = %+v, want ok/coordinator", h)
	}
	if h.UptimeSeconds < 0 {
		t.Errorf("negative uptime %g", h.UptimeSeconds)
	}
	if h.LiveWorkers == nil || *h.LiveWorkers != 3 {
		t.Errorf("live workers = %v, want 3", h.LiveWorkers)
	}

	// A standalone handler reports its role and omits live_workers.
	ts2 := httptest.NewServer(NewHandler(s))
	t.Cleanup(ts2.Close)
	resp2, err := http.Get(ts2.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var h2 Health
	if err := json.NewDecoder(resp2.Body).Decode(&h2); err != nil {
		t.Fatal(err)
	}
	if h2.Role != "standalone" || h2.LiveWorkers != nil {
		t.Errorf("standalone health = %+v", h2)
	}
}

func TestHTTPDeleteFinishedJobConflicts(t *testing.T) {
	r := &countingRunner{}
	s, ts := newTestServer(t, Config{Workers: 1, Runner: r.run})
	sub := mustSubmit(t, s, tinySpec(1))
	waitState(t, s, sub.ID, StateDone)
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+sub.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("DELETE done job: %d, want 409", resp.StatusCode)
	}
}

func TestHTTPListAndMetrics(t *testing.T) {
	r := &countingRunner{}
	s, ts := newTestServer(t, Config{Workers: 1, Runner: r.run})
	sub := mustSubmit(t, s, tinySpec(1))
	waitState(t, s, sub.ID, StateDone)
	mustSubmit(t, s, tinySpec(1)) // cache hit

	resp, err := http.Get(ts.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	var list struct {
		Jobs []JobView `json:"jobs"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(list.Jobs) != 2 {
		t.Fatalf("list has %d jobs, want 2", len(list.Jobs))
	}
	if len(list.Jobs[0].Result) != 0 {
		t.Error("list leaked result payloads")
	}

	mr, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mr.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(mr.Body); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, want := range []string{
		"scrubd_jobs_accepted_total 2",
		"scrubd_cache_hits_total 1",
		"scrubd_jobs_completed_total 1",
		"# TYPE scrubd_queue_depth gauge",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q\n%s", want, text)
		}
	}
	if !strings.HasPrefix(mr.Header.Get("Content-Type"), "text/plain") {
		t.Errorf("metrics content type %q", mr.Header.Get("Content-Type"))
	}
}

// TestShortHorizonJobCompletes runs a spec whose horizon puts the
// combined mechanism's adaptive cap below its default floor through the
// real runner: the job must finish, not panic.
func TestShortHorizonJobCompletes(t *testing.T) {
	s := New(Config{Workers: 1})
	defer shutdown(t, s)
	spec := tinySpec(5)
	spec.Mechanism = "combined"
	spec.HorizonSec = 900
	sub := mustSubmit(t, s, spec)
	if v := waitState(t, s, sub.ID, StateDone); v.Result == nil {
		t.Fatal("done job carries no result")
	}
}

// TestDefaultRunnerReplicated exercises the real runner directly,
// checking replica fan-out and fault propagation into the result.
func TestDefaultRunnerReplicated(t *testing.T) {
	spec := tinySpec(3)
	spec.Replicas = 3
	spec.Fault = &fault.Plan{SweepSkipRate: 0.5, Seed: 7}
	norm := mustNormalize(t, spec)
	res, err := DefaultRunner(context.Background(), norm)
	if err != nil {
		t.Fatal(err)
	}
	if res.Replicas.Completed != 3 || len(res.Runs) != 3 {
		t.Fatalf("completed %d runs %d, want 3/3", res.Replicas.Completed, len(res.Runs))
	}
	anyFaults := false
	for i, run := range res.Runs {
		if run.ReplicaIndex != i {
			t.Errorf("run %d has replica index %d", i, run.ReplicaIndex)
		}
		if run.Faults != nil && run.Faults.SweepsInterrupted > 0 {
			anyFaults = true
		}
	}
	if !anyFaults {
		t.Error("sweep-skip faults never fired across 3 replicas")
	}
	if res.UEs.N != 3 {
		t.Errorf("UEs summary over %d samples, want 3", res.UEs.N)
	}
	want := fmt.Sprintf("%q", norm.Fingerprint())
	data, _ := json.Marshal(res)
	if !strings.Contains(string(data), want) {
		t.Error("encoded result does not embed the fingerprint")
	}
}
