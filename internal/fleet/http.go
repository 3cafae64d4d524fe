package fleet

import (
	"errors"
	"net/http"
	"strconv"

	"repro/internal/httpx"
)

// RegisterRoutes mounts the fleet control surface on mux, mirroring the
// EDAC scrub-control ABI over HTTP/JSON:
//
//	POST   /v1/fleet/devices                register a device (201)
//	GET    /v1/fleet/devices                list devices
//	GET    /v1/fleet/devices/{id}           one device's state
//	DELETE /v1/fleet/devices/{id}           remove a device
//	GET    /v1/fleet/devices/{id}/patrol    patrol configuration
//	PATCH  /v1/fleet/devices/{id}/patrol    live-reconfigure the session
//	POST   /v1/fleet/devices/{id}/scrubs    submit an on-demand region scrub (202)
//	GET    /v1/fleet/devices/{id}/scrubs    list the device's scrubs
//	GET    /v1/fleet/devices/{id}/scrubs/{sid}  one scrub's report
//	GET    /v1/fleet/devices/{id}/telemetry error statistics (?limit=N)
//	GET    /v1/fleet/devices/{id}/repairs   repair-event audit log
func (m *Manager) RegisterRoutes(mux *http.ServeMux) {
	mux.HandleFunc("POST /v1/fleet/devices", func(w http.ResponseWriter, r *http.Request) {
		var spec DeviceSpec
		if err := httpx.DecodeJSON(w, r, m.MaxBodyBytes, true, &spec); err != nil {
			httpx.WriteError(w, httpx.DecodeStatus(err), err)
			return
		}
		v, err := m.Register(spec)
		if err != nil {
			httpx.WriteError(w, statusFor(err, http.StatusBadRequest), err)
			return
		}
		httpx.WriteJSON(w, http.StatusCreated, v)
	})
	mux.HandleFunc("GET /v1/fleet/devices", func(w http.ResponseWriter, r *http.Request) {
		httpx.WriteJSON(w, http.StatusOK, struct {
			Devices []DeviceView `json:"devices"`
		}{m.List()})
	})
	mux.HandleFunc("GET /v1/fleet/devices/{id}", func(w http.ResponseWriter, r *http.Request) {
		v, err := m.Get(r.PathValue("id"))
		if err != nil {
			httpx.WriteError(w, statusFor(err, http.StatusNotFound), err)
			return
		}
		httpx.WriteJSON(w, http.StatusOK, v)
	})
	mux.HandleFunc("DELETE /v1/fleet/devices/{id}", func(w http.ResponseWriter, r *http.Request) {
		if err := m.Remove(r.PathValue("id")); err != nil {
			httpx.WriteError(w, statusFor(err, http.StatusInternalServerError), err)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	})
	mux.HandleFunc("GET /v1/fleet/devices/{id}/patrol", func(w http.ResponseWriter, r *http.Request) {
		d, err := m.device(r.PathValue("id"))
		if err != nil {
			httpx.WriteError(w, statusFor(err, http.StatusNotFound), err)
			return
		}
		httpx.WriteJSON(w, http.StatusOK, d.Patrol())
	})
	mux.HandleFunc("PATCH /v1/fleet/devices/{id}/patrol", func(w http.ResponseWriter, r *http.Request) {
		var p PatrolPatch
		if err := httpx.DecodeJSON(w, r, m.MaxBodyBytes, true, &p); err != nil {
			httpx.WriteError(w, httpx.DecodeStatus(err), err)
			return
		}
		cfg, err := m.Patch(r.PathValue("id"), p)
		if err != nil {
			httpx.WriteError(w, statusFor(err, http.StatusBadRequest), err)
			return
		}
		httpx.WriteJSON(w, http.StatusOK, cfg)
	})
	mux.HandleFunc("POST /v1/fleet/devices/{id}/scrubs", func(w http.ResponseWriter, r *http.Request) {
		var req ScrubRequest
		if err := httpx.DecodeJSON(w, r, m.MaxBodyBytes, true, &req); err != nil {
			httpx.WriteError(w, httpx.DecodeStatus(err), err)
			return
		}
		v, err := m.EnqueueScrub(r.PathValue("id"), req)
		if err != nil {
			httpx.WriteError(w, statusFor(err, http.StatusBadRequest), err)
			return
		}
		httpx.WriteJSON(w, http.StatusAccepted, v)
	})
	mux.HandleFunc("GET /v1/fleet/devices/{id}/scrubs", func(w http.ResponseWriter, r *http.Request) {
		vs, err := m.Scrubs(r.PathValue("id"))
		if err != nil {
			httpx.WriteError(w, statusFor(err, http.StatusNotFound), err)
			return
		}
		httpx.WriteJSON(w, http.StatusOK, struct {
			Scrubs []ScrubView `json:"scrubs"`
		}{vs})
	})
	mux.HandleFunc("GET /v1/fleet/devices/{id}/scrubs/{sid}", func(w http.ResponseWriter, r *http.Request) {
		v, err := m.Scrub(r.PathValue("id"), r.PathValue("sid"))
		if err != nil {
			httpx.WriteError(w, statusFor(err, http.StatusNotFound), err)
			return
		}
		httpx.WriteJSON(w, http.StatusOK, v)
	})
	mux.HandleFunc("GET /v1/fleet/devices/{id}/telemetry", func(w http.ResponseWriter, r *http.Request) {
		limit := 0
		if s := r.URL.Query().Get("limit"); s != "" {
			n, err := strconv.Atoi(s)
			if err != nil || n < 0 {
				httpx.WriteError(w, http.StatusBadRequest, errors.New("fleet: limit must be a non-negative integer"))
				return
			}
			limit = n
		}
		lt, err := m.Telemetry(r.PathValue("id"), limit)
		if err != nil {
			httpx.WriteError(w, statusFor(err, http.StatusNotFound), err)
			return
		}
		httpx.WriteJSON(w, http.StatusOK, struct {
			Lines []LineTelemetry `json:"lines"`
		}{lt})
	})
	mux.HandleFunc("GET /v1/fleet/devices/{id}/repairs", func(w http.ResponseWriter, r *http.Request) {
		evs, err := m.Repairs(r.PathValue("id"))
		if err != nil {
			httpx.WriteError(w, statusFor(err, http.StatusNotFound), err)
			return
		}
		httpx.WriteJSON(w, http.StatusOK, struct {
			Repairs []RepairEvent `json:"repairs"`
		}{evs})
	})
}

// statusFor maps fleet sentinel errors onto HTTP statuses.
func statusFor(err error, fallback int) int {
	switch {
	case errors.Is(err, ErrNotFound):
		return http.StatusNotFound
	case errors.Is(err, ErrClosed):
		return http.StatusServiceUnavailable
	}
	return fallback
}
