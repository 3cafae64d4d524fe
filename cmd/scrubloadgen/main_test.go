package main

import (
	"context"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/service"
)

// TestSubmitVerdicts drives submit against an in-process daemon in both
// modes: batch size 1 (POST /v1/jobs) and 4 (POST /v1/jobs/batch). Each
// spec's status and dedup/cache-hit flags must be the daemon's verdict.
func TestSubmitVerdicts(t *testing.T) {
	svc := service.New(service.Config{QueueCapacity: 16, Workers: 1, CacheCapacity: 16})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := svc.Shutdown(ctx); err != nil {
			t.Errorf("service shutdown: %v", err)
		}
	}()
	srv := httptest.NewServer(service.NewHandler(svc))
	defer srv.Close()

	cfg := genConfig{Horizon: 2000, Replicas: 1, Unique: 1000}
	rng := rand.New(rand.NewSource(1))
	spec := func(seed uint64) service.Spec {
		s, _ := makeSpec(rng, cfg)
		s.Seed, s.DeadlineAt = seed, ""
		return s
	}
	type verdict struct {
		status     int
		dedup, hit bool
	}
	check := func(name string, specs []service.Spec, want []verdict) {
		t.Helper()
		statuses, dedups, hits, err := submit(srv.Client(), srv.URL, "tenant-0", specs)
		if err != nil {
			t.Fatalf("%s: submit: %v", name, err)
		}
		for i, w := range want {
			if got := (verdict{statuses[i], dedups[i], hits[i]}); got != w {
				t.Errorf("%s: spec %d verdict %+v, want %+v", name, i, got, w)
			}
		}
	}

	// Batch size 1: a fresh spec is accepted, a bad one is a 400 status
	// (not an error), and once the first has run it answers from cache.
	first := spec(1)
	check("single fresh", []service.Spec{first}, []verdict{{http.StatusAccepted, false, false}})
	bad := spec(2)
	bad.Workload = "no-such-workload"
	check("single bad", []service.Spec{bad}, []verdict{{http.StatusBadRequest, false, false}})
	norm, err := first.Normalized()
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		if _, ok := svc.CachedResult(norm.Fingerprint()); ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("first job never reached the cache")
		}
		time.Sleep(5 * time.Millisecond)
	}
	check("single repeat", []service.Spec{first}, []verdict{{http.StatusOK, false, true}})

	// Batch size 4: a cache hit, a fresh spec, its sibling deduped onto
	// it, and a refused spec, in request order.
	check("batch", []service.Spec{first, spec(3), spec(3), bad}, []verdict{
		{http.StatusOK, false, true},
		{http.StatusAccepted, false, false},
		{http.StatusAccepted, true, false},
		{http.StatusBadRequest, false, false},
	})
}
