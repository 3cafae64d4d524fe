// Package httpx holds the small HTTP helpers every daemon surface in
// this repo shares: request-body capping, JSON decoding, JSON responses,
// the Prometheus text writer behind /metrics, and Call, the one path
// every outbound JSON request takes.
// A scrub daemon's ingest path faces untrusted writers; an unbounded
// body read is an invitation to exhaust the node's memory long before
// admission control gets a say.
package httpx

import (
	"encoding/json"
	"errors"
	"net/http"
)

// DefaultMaxBodyBytes caps a JSON request body at 1 MiB unless the
// surface overrides it — generous for any job spec, far too small to
// hurt the node.
const DefaultMaxBodyBytes int64 = 1 << 20

// DecodeJSON reads at most limit bytes (DefaultMaxBodyBytes when
// limit <= 0) of r's body and decodes them into v. strict rejects
// unknown fields. A body over the cap surfaces as *http.MaxBytesError;
// map it to 413 with TooLarge.
func DecodeJSON(w http.ResponseWriter, r *http.Request, limit int64, strict bool, v any) error {
	if limit <= 0 {
		limit = DefaultMaxBodyBytes
	}
	r.Body = http.MaxBytesReader(w, r.Body, limit)
	dec := json.NewDecoder(r.Body)
	if strict {
		dec.DisallowUnknownFields()
	}
	return dec.Decode(v)
}

// TooLarge reports whether err came from the MaxBytesReader cap.
func TooLarge(err error) bool {
	var mbe *http.MaxBytesError
	return errors.As(err, &mbe)
}

// DecodeStatus maps a DecodeJSON failure onto its status: 413 when the
// body blew the size cap, 400 otherwise.
func DecodeStatus(err error) int {
	if TooLarge(err) {
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}

// WriteJSON answers with status and v encoded as one line of JSON.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// WriteError answers with status and the body {"error": err.Error()}.
func WriteError(w http.ResponseWriter, status int, err error) {
	WriteJSON(w, status, struct {
		Error string `json:"error"`
	}{err.Error()})
}
