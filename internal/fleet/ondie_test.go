package fleet

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/ondie"
)

// ondieDeviceSpec is testDeviceSpec with an on-die ECC layer and enough
// pre-aging that profiling rounds find a real at-risk population.
func ondieDeviceSpec(seed uint64) DeviceSpec {
	ds := testDeviceSpec(seed)
	ds.OnDie = &ondie.Config{T: 1}
	ds.AgedWrites = 20_000_000
	return ds
}

// TestPatchUnknownPolicyListsValid pins the PATCH validation contract:
// an unknown policy name is a 400 whose error body names the offender
// and enumerates the valid vocabulary, so a caller can self-correct
// from the response alone.
func TestPatchUnknownPolicyListsValid(t *testing.T) {
	m := NewManager(nil)
	defer m.Shutdown()
	mux := http.NewServeMux()
	m.RegisterRoutes(mux)
	srv := httptest.NewServer(mux)
	defer srv.Close()

	var dev DeviceView
	if code := doJSON(t, srv, "POST", "/v1/fleet/devices", testDeviceSpec(7), &dev); code != http.StatusCreated {
		t.Fatalf("register status = %d, want 201", code)
	}

	var body struct {
		Error string `json:"error"`
	}
	patch := map[string]any{"policy": "no-such-policy"}
	code := doJSON(t, srv, "PATCH", "/v1/fleet/devices/"+dev.ID+"/patrol", patch, &body)
	if code != http.StatusBadRequest {
		t.Fatalf("unknown policy status = %d, want 400", code)
	}
	if !strings.Contains(body.Error, `unknown policy "no-such-policy"`) {
		t.Errorf("error body does not name the offending policy: %q", body.Error)
	}
	for _, want := range []string{"basic", "always", "light", "threshold-<k>", "combined-<k>", "profiled", "profiled-<k>"} {
		if !strings.Contains(body.Error, want) {
			t.Errorf("error body does not list valid policy %q: %q", want, body.Error)
		}
	}

	// A rejected policy leaves the device's current policy untouched.
	var after DeviceView
	if c := doJSON(t, srv, "GET", "/v1/fleet/devices/"+dev.ID, nil, &after); c != http.StatusOK {
		t.Fatalf("readback status = %d", c)
	}
	if after.Policy != dev.Policy {
		t.Errorf("failed patch changed policy: %q -> %q", dev.Policy, after.Policy)
	}

	// And the valid spellings it advertises do resolve.
	var cfg PatrolConfig
	if c := doJSON(t, srv, "PATCH", "/v1/fleet/devices/"+dev.ID+"/patrol",
		map[string]any{"policy": "profiled-2"}, &cfg); c != http.StatusOK {
		t.Errorf("profiled-2 patch status = %d, want 200", c)
	}
}

// TestProfiledPolicyLivePatchRace exercises the profiling state under a
// live patrol session: concurrent PATCHes toggle the device between a
// profiled and a plain policy (arming and dropping the at-risk machinery
// mid-patrol) while readers pull views and telemetry. Run under -race
// this pins that profiling state changes are fully serialised with the
// session's chunk loop.
func TestProfiledPolicyLivePatchRace(t *testing.T) {
	m := NewManager(nil)
	defer m.Shutdown()

	v, err := m.Register(ondieDeviceSpec(11))
	if err != nil {
		t.Fatal(err)
	}
	id := v.ID

	const flips = 40
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		policies := []string{"profiled-1", "combined-4"}
		for i := 0; i < flips; i++ {
			p := policies[i%len(policies)]
			if _, err := m.Patch(id, PatrolPatch{Policy: &p}); err != nil {
				t.Errorf("patch %q: %v", p, err)
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < flips; i++ {
			if _, err := m.Get(id); err != nil {
				t.Errorf("get: %v", err)
				return
			}
			if _, err := m.Telemetry(id, 8); err != nil {
				t.Errorf("telemetry: %v", err)
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()
	wg.Wait()

	// The session survived the churn and kept patrolling.
	after, err := m.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(after.Policy, "profiled") && !strings.HasPrefix(after.Policy, "combined") {
		t.Errorf("unexpected final policy %q", after.Policy)
	}
	if after.ScrubVisits == 0 {
		t.Error("session performed no scrub visits during the churn")
	}
}
