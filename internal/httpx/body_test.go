package httpx

import (
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// TestWriteJSONBytes pins the exact response every daemon surface sends:
// status, a single Content-Type header, and one newline-terminated line
// of JSON with HTML-escaped strings (json.Encoder's defaults).
func TestWriteJSONBytes(t *testing.T) {
	rec := httptest.NewRecorder()
	WriteJSON(rec, http.StatusAccepted, struct {
		ID   string `json:"id"`
		Note string `json:"note,omitempty"`
		N    int    `json:"n"`
	}{ID: "job-000001", Note: "<a&b>", N: 3})
	if rec.Code != http.StatusAccepted {
		t.Errorf("status = %d, want 202", rec.Code)
	}
	if got := rec.Header().Values("Content-Type"); len(got) != 1 || got[0] != "application/json" {
		t.Errorf("Content-Type = %q, want exactly [application/json]", got)
	}
	if want := `{"id":"job-000001","note":"\u003ca\u0026b\u003e","n":3}` + "\n"; rec.Body.String() != want {
		t.Errorf("body = %q, want %q", rec.Body.String(), want)
	}
}

func TestWriteErrorBytes(t *testing.T) {
	rec := httptest.NewRecorder()
	WriteError(rec, http.StatusTooManyRequests, errors.New(`cluster: worker at "capacity"`))
	if rec.Code != http.StatusTooManyRequests {
		t.Errorf("status = %d, want 429", rec.Code)
	}
	if got := rec.Header().Get("Content-Type"); got != "application/json" {
		t.Errorf("Content-Type = %q", got)
	}
	if want := `{"error":"cluster: worker at \"capacity\""}` + "\n"; rec.Body.String() != want {
		t.Errorf("body = %q, want %q", rec.Body.String(), want)
	}
}

func TestDecodeStatus(t *testing.T) {
	decode := func(body string, limit int64) error {
		r := httptest.NewRequest(http.MethodPost, "/", strings.NewReader(body))
		var v map[string]any
		return DecodeJSON(httptest.NewRecorder(), r, limit, true, &v)
	}
	if err := decode(`{"a":"`+strings.Repeat("x", 64)+`"}`, 16); DecodeStatus(err) != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized body: status %d (err %v), want 413", DecodeStatus(err), err)
	}
	if err := decode(`{"a":`, 0); DecodeStatus(err) != http.StatusBadRequest {
		t.Errorf("malformed body: status %d (err %v), want 400", DecodeStatus(err), err)
	}
	wrapped := fmt.Errorf("cluster: decode: %w", &http.MaxBytesError{Limit: 1})
	if DecodeStatus(wrapped) != http.StatusRequestEntityTooLarge {
		t.Error("a wrapped MaxBytesError must still map to 413")
	}
}
