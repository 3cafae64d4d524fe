package main

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/httpx"
	"repro/internal/mem"
	"repro/internal/scrub"
	"repro/internal/service"
)

// captureStdout runs fn with os.Stdout redirected and returns what it
// printed.
func captureStdout(t *testing.T, fn func() error) (string, error) {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	orig := os.Stdout
	os.Stdout = w
	defer func() { os.Stdout = orig }()
	out := make(chan []byte)
	go func() {
		b, _ := io.ReadAll(r)
		out <- b
	}()
	runErr := fn()
	w.Close()
	return string(<-out), runErr
}

// TestParsePolicy pins that each -policy spelling resolves, through the
// job spec run builds from its flags, to the expected scrub policy.
func TestParsePolicy(t *testing.T) {
	cases := []struct {
		spec   string
		name   string
		detect scrub.Detection
	}{
		{"basic", "basic", scrub.FullDecode},
		{"always", "always-write", scrub.FullDecode},
		{"light", "basic+light", scrub.LightDetect},
		{"threshold-3", "threshold-3", scrub.FullDecode},
		{"combined-5", "combined", scrub.LightDetect},
	}
	for _, c := range cases {
		_, mech, _, err := service.Spec{Mechanism: "combined", Workload: "db-oltp", Policy: c.spec}.Build()
		if err != nil {
			t.Fatalf("-policy %q: %v", c.spec, err)
		}
		if mech.Policy.Name() != c.name {
			t.Errorf("-policy %q: policy %q, want %q", c.spec, mech.Policy.Name(), c.name)
		}
		if mech.Policy.Detection() != c.detect {
			t.Errorf("-policy %q: detection = %v, want %v", c.spec, mech.Policy.Detection(), c.detect)
		}
	}
}

// TestParsePolicyRejectsUnknown pins that run refuses a malformed -policy
// before simulating, and that an empty -policy keeps the suite
// mechanism's policy instead of failing.
func TestParsePolicyRejectsUnknown(t *testing.T) {
	for _, spec := range []string{"bogus", "threshold-", "threshold-x", "combined"} {
		err := run([]string{"-policy", spec, "-horizon", "7200"})
		if err == nil || !strings.Contains(err.Error(), "unknown policy") {
			t.Errorf("run with -policy %q: err = %v, want an unknown-policy error", spec, err)
		}
	}
	if _, err := captureStdout(t, func() error {
		return run([]string{"-policy", "", "-horizon", "7200", "-json"})
	}); err != nil {
		t.Errorf("run with -policy \"\": %v, want the suite mechanism's policy", err)
	}
}

// TestSeedZeroSameLocallyAndSubmitted pins that local runs and -submit
// jobs build the same run from the same flags: -seed 0 selects the job
// spec's default seed on both paths, so the local result equals the
// remote job's only run.
func TestSeedZeroSameLocallyAndSubmitted(t *testing.T) {
	svc := service.New(service.Config{QueueCapacity: 4, Workers: 1, CacheCapacity: 4})
	defer shutdownService(t, svc)
	srv := httptest.NewServer(service.NewHandler(svc))
	defer srv.Close()

	args := []string{"-mechanism", "basic", "-horizon", "7200", "-seed", "0", "-json"}
	localOut, err := captureStdout(t, func() error { return run(args) })
	if err != nil {
		t.Fatalf("local run: %v", err)
	}
	remoteOut, err := captureStdout(t, func() error { return run(append(args, "-submit", srv.URL)) })
	if err != nil {
		t.Fatalf("submitted run: %v", err)
	}
	var local service.RunMetrics
	if err := json.Unmarshal([]byte(localOut), &local); err != nil {
		t.Fatalf("decode local output: %v", err)
	}
	var remote service.Result
	if err := json.Unmarshal([]byte(remoteOut), &remote); err != nil {
		t.Fatalf("decode remote output: %v", err)
	}
	if len(remote.Runs) != 1 {
		t.Fatalf("remote runs = %d, want 1", len(remote.Runs))
	}
	gotJSON, _ := json.Marshal(local)
	wantJSON, _ := json.Marshal(remote.Runs[0])
	if string(gotJSON) != string(wantJSON) {
		t.Errorf("local -seed 0 run differs from the submitted one:\n local %s\nremote %s", gotJSON, wantJSON)
	}
}

// TestNegativeIntervalRejectedLocally pins that a local run rejects a
// negative -interval, as a submitted job does, instead of ignoring it.
func TestNegativeIntervalRejectedLocally(t *testing.T) {
	err := run([]string{"-interval", "-60", "-horizon", "7200"})
	if err == nil || !strings.Contains(err.Error(), "interval") {
		t.Fatalf("run with -interval -60: err = %v, want an interval error", err)
	}
}

// TestSubmitJobRoundTrip drives the -submit client path against a real
// in-process scrubd service and checks the remote result matches a local
// run of the same spec.
func TestSubmitJobRoundTrip(t *testing.T) {
	svc := service.New(service.Config{QueueCapacity: 4, Workers: 1, CacheCapacity: 4})
	defer shutdownService(t, svc)
	srv := httptest.NewServer(service.NewHandler(svc))
	defer srv.Close()

	spec := service.Spec{
		Mechanism:  "basic",
		Workload:   "db-oltp",
		HorizonSec: 20000,
		Seed:       3,
		Replicas:   2,
		Geometry: &mem.Geometry{
			Channels: 1, RanksPerChan: 1, BanksPerRank: 2,
			RowsPerBank: 8, LinesPerRow: 8, LineBytes: 64,
		},
	}
	got, err := submitJob(context.Background(), srv.URL, spec, time.Minute)
	if err != nil {
		t.Fatalf("submitJob: %v", err)
	}

	norm, err := spec.Normalized()
	if err != nil {
		t.Fatalf("Normalized: %v", err)
	}
	want, err := service.DefaultRunner(context.Background(), norm)
	if err != nil {
		t.Fatalf("local run: %v", err)
	}
	gotJSON, _ := json.Marshal(got)
	wantJSON, _ := json.Marshal(want)
	if string(gotJSON) != string(wantJSON) {
		t.Errorf("remote result differs from local:\n got %s\nwant %s", gotJSON, wantJSON)
	}

	// The remote result reconstructs into the local report inputs.
	if len(got.Runs) != 2 {
		t.Fatalf("runs = %d, want 2", len(got.Runs))
	}
	res0 := got.Runs[0].ToSimResult()
	sys, _, w, err := got.Spec.Build()
	if err != nil {
		t.Fatalf("rebuild spec: %v", err)
	}
	if _, err := core.PerfOverhead(sys, w, res0); err != nil {
		t.Errorf("PerfOverhead on reconstructed result: %v", err)
	}
}

// TestSubmitJobBadSpec pins that a daemon-side validation error surfaces
// as a submit error, not a hang.
func TestSubmitJobBadSpec(t *testing.T) {
	svc := service.New(service.Config{QueueCapacity: 4, Workers: 1, CacheCapacity: 4})
	defer shutdownService(t, svc)
	srv := httptest.NewServer(service.NewHandler(svc))
	defer srv.Close()

	_, err := submitJob(context.Background(), srv.URL, service.Spec{Workload: "no-such-workload"}, time.Minute)
	if err == nil {
		t.Fatal("submitJob accepted an invalid spec")
	}
}

// TestSubmitJobRetriesBackPressure pins that a 429 and then a 503, each
// with Retry-After: 0, are retried and the third submission lands.
func TestSubmitJobRetriesBackPressure(t *testing.T) {
	svc := service.New(service.Config{QueueCapacity: 4, Workers: 1, CacheCapacity: 4})
	defer shutdownService(t, svc)
	daemon := service.NewHandler(svc)
	var submits atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost && r.URL.Path == "/v1/jobs" {
			switch submits.Add(1) {
			case 1:
				w.Header().Set("Retry-After", "0")
				httpx.WriteError(w, http.StatusTooManyRequests, errors.New("queue full"))
				return
			case 2:
				w.Header().Set("Retry-After", "0")
				httpx.WriteError(w, http.StatusServiceUnavailable, errors.New("shedding"))
				return
			}
		}
		daemon.ServeHTTP(w, r)
	}))
	defer srv.Close()

	spec := service.Spec{Mechanism: "basic", Workload: "db-oltp", HorizonSec: 7200, Geometry: &mem.Geometry{
		Channels: 1, RanksPerChan: 1, BanksPerRank: 2, RowsPerBank: 8, LinesPerRow: 8, LineBytes: 64,
	}}
	res, err := submitJob(context.Background(), srv.URL, spec, time.Minute)
	if err != nil {
		t.Fatalf("submitJob: %v", err)
	}
	if n := submits.Load(); n != 3 {
		t.Errorf("submissions = %d, want 3 (429, 503, accepted)", n)
	}
	if len(res.Runs) != 1 {
		t.Errorf("runs = %d, want 1", len(res.Runs))
	}
}

func shutdownService(t *testing.T, svc *service.Service) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := svc.Shutdown(ctx); err != nil {
		t.Errorf("service shutdown: %v", err)
	}
}
