package fleet

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/mem"
)

// doJSON issues a request against the test server and decodes the body.
func doJSON(t *testing.T, srv *httptest.Server, method, path string, body any, out any) int {
	t.Helper()
	var buf bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			t.Fatalf("encode body: %v", err)
		}
	}
	req, err := http.NewRequest(method, srv.URL+path, &buf)
	if err != nil {
		t.Fatalf("new request: %v", err)
	}
	resp, err := srv.Client().Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, path, err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("%s %s: decode: %v", method, path, err)
		}
	}
	return resp.StatusCode
}

func TestFleetHTTPSurface(t *testing.T) {
	m := NewManager(nil)
	defer m.Shutdown()
	mux := http.NewServeMux()
	m.RegisterRoutes(mux)
	srv := httptest.NewServer(mux)
	defer srv.Close()

	// Register a device.
	var dev DeviceView
	if code := doJSON(t, srv, "POST", "/v1/fleet/devices", testDeviceSpec(42), &dev); code != http.StatusCreated {
		t.Fatalf("register status = %d, want 201", code)
	}
	if dev.ID == "" || dev.Lines != 128 {
		t.Fatalf("registered device = %+v", dev)
	}

	// Bad specs are rejected.
	if code := doJSON(t, srv, "POST", "/v1/fleet/devices",
		DeviceSpec{Workload: "no-such"}, nil); code != http.StatusBadRequest {
		t.Errorf("bad spec status = %d, want 400", code)
	}
	overflow := testDeviceSpec(43)
	overflow.Geometry = &mem.Geometry{Channels: 1 << 32, RanksPerChan: 1 << 32, BanksPerRank: 1, RowsPerBank: 1, LinesPerRow: 1, LineBytes: 64}
	if code := doJSON(t, srv, "POST", "/v1/fleet/devices", overflow, nil); code != http.StatusBadRequest {
		t.Errorf("overflowing geometry status = %d, want 400", code)
	}
	if code := doJSON(t, srv, "GET", "/v1/fleet/devices/dev-999999", nil, nil); code != http.StatusNotFound {
		t.Errorf("missing device status = %d, want 404", code)
	}

	// List shows the device.
	var list struct {
		Devices []DeviceView `json:"devices"`
	}
	if code := doJSON(t, srv, "GET", "/v1/fleet/devices", nil, &list); code != http.StatusOK {
		t.Fatalf("list status = %d", code)
	}
	if len(list.Devices) != 1 || list.Devices[0].ID != dev.ID {
		t.Fatalf("list = %+v", list)
	}

	// Live PATCH: the merged config comes back and sticks.
	var cfg PatrolConfig
	patch := map[string]any{"rate_lines_per_sec": 999.0, "paused": true}
	if code := doJSON(t, srv, "PATCH", "/v1/fleet/devices/"+dev.ID+"/patrol", patch, &cfg); code != http.StatusOK {
		t.Fatalf("patch status = %d", code)
	}
	if cfg.RateLinesPerSec != 999 || !cfg.Paused {
		t.Fatalf("patched config = %+v", cfg)
	}
	var got PatrolConfig
	if code := doJSON(t, srv, "GET", "/v1/fleet/devices/"+dev.ID+"/patrol", nil, &got); code != http.StatusOK || got != cfg {
		t.Fatalf("patrol readback = %+v (%d), want %+v", got, code, cfg)
	}
	if code := doJSON(t, srv, "PATCH", "/v1/fleet/devices/"+dev.ID+"/patrol",
		map[string]any{"rate_lines_per_sec": -1}, nil); code != http.StatusBadRequest {
		t.Errorf("invalid patch status = %d, want 400", code)
	}

	// On-demand scrub: accepted, runs even while patrol is paused.
	var sv ScrubView
	if code := doJSON(t, srv, "POST", "/v1/fleet/devices/"+dev.ID+"/scrubs",
		ScrubRequest{First: 0, Count: 32}, &sv); code != http.StatusAccepted {
		t.Fatalf("scrub submit status = %d, want 202", code)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		var s ScrubView
		if code := doJSON(t, srv, "GET", "/v1/fleet/devices/"+dev.ID+"/scrubs/"+sv.ID, nil, &s); code != http.StatusOK {
			t.Fatalf("scrub get status = %d", code)
		}
		if s.State == ScrubDone {
			if s.Report.LinesScrubbed != 32 {
				t.Errorf("scrub report = %+v", s.Report)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("scrub never finished: %+v", s)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if code := doJSON(t, srv, "POST", "/v1/fleet/devices/"+dev.ID+"/scrubs",
		ScrubRequest{First: 1000, Count: 5}, nil); code != http.StatusBadRequest {
		t.Errorf("out-of-range scrub status = %d, want 400", code)
	}

	// Telemetry and repairs respond (possibly empty) with valid shapes.
	var tel struct {
		Lines []LineTelemetry `json:"lines"`
	}
	if code := doJSON(t, srv, "GET", "/v1/fleet/devices/"+dev.ID+"/telemetry?limit=5", nil, &tel); code != http.StatusOK {
		t.Errorf("telemetry status = %d", code)
	}
	if code := doJSON(t, srv, "GET", "/v1/fleet/devices/"+dev.ID+"/telemetry?limit=x", nil, nil); code != http.StatusBadRequest {
		t.Errorf("bad limit status = %d, want 400", code)
	}
	var reps struct {
		Repairs []RepairEvent `json:"repairs"`
	}
	if code := doJSON(t, srv, "GET", "/v1/fleet/devices/"+dev.ID+"/repairs", nil, &reps); code != http.StatusOK {
		t.Errorf("repairs status = %d", code)
	}

	// Remove, then everything 404s.
	if code := doJSON(t, srv, "DELETE", "/v1/fleet/devices/"+dev.ID, nil, nil); code != http.StatusNoContent {
		t.Fatalf("delete status = %d, want 204", code)
	}
	if code := doJSON(t, srv, "GET", "/v1/fleet/devices/"+dev.ID, nil, nil); code != http.StatusNotFound {
		t.Errorf("deleted device status = %d, want 404", code)
	}
}

// TestFleetHTTPOverflowingScrubRejected pins that an on-demand scrub
// whose first+count wraps negative is refused with 400 and leaves the
// device serving: its session keeps patrolling afterwards.
func TestFleetHTTPOverflowingScrubRejected(t *testing.T) {
	m := NewManager(nil)
	defer m.Shutdown()
	mux := http.NewServeMux()
	m.RegisterRoutes(mux)
	srv := httptest.NewServer(mux)
	defer srv.Close()

	var dev DeviceView
	if code := doJSON(t, srv, "POST", "/v1/fleet/devices", testDeviceSpec(42), &dev); code != http.StatusCreated {
		t.Fatalf("register status = %d, want 201", code)
	}
	if code := doJSON(t, srv, "POST", "/v1/fleet/devices/"+dev.ID+"/scrubs",
		ScrubRequest{First: math.MaxInt, Count: 1}, nil); code != http.StatusBadRequest {
		t.Fatalf("overflowing scrub status = %d, want 400", code)
	}
	var before DeviceView
	if code := doJSON(t, srv, "GET", "/v1/fleet/devices/"+dev.ID, nil, &before); code != http.StatusOK {
		t.Fatalf("device status = %d after the rejected scrub", code)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		var v DeviceView
		if code := doJSON(t, srv, "GET", "/v1/fleet/devices/"+dev.ID, nil, &v); code != http.StatusOK {
			t.Fatalf("device status = %d", code)
		}
		if v.PatrolChunks > before.PatrolChunks {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("device stopped patrolling: %+v", v)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
