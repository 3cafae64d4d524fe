package httpx

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

type echo struct {
	N int    `json:"n"`
	S string `json:"s"`
}

// TestCallSendsBodyAndHeaders pins the request Call builds: the JSON
// body, its Content-Type, and every extra header.
func TestCallSendsBodyAndHeaders(t *testing.T) {
	var gotBody, gotType, gotTenant, gotMethod string
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		raw, _ := io.ReadAll(r.Body)
		gotBody, gotType, gotTenant, gotMethod = string(raw), r.Header.Get("Content-Type"), r.Header.Get("X-Tenant"), r.Method
		WriteJSON(w, http.StatusOK, echo{N: 7, S: "ok"})
	}))
	defer srv.Close()

	var out echo
	status, err := Call(context.Background(), nil, http.MethodPost, srv.URL, http.Header{"X-Tenant": {"t1"}}, echo{N: 3, S: "in"}, &out)
	if err != nil || status != http.StatusOK {
		t.Fatalf("Call = (%d, %v)", status, err)
	}
	if gotMethod != http.MethodPost || gotBody != `{"n":3,"s":"in"}` || gotType != "application/json" || gotTenant != "t1" {
		t.Errorf("request: method %q body %q type %q tenant %q", gotMethod, gotBody, gotType, gotTenant)
	}
	if out != (echo{N: 7, S: "ok"}) {
		t.Errorf("decoded %+v", out)
	}

	// A bodyless call sends no Content-Type.
	if _, err := Call(context.Background(), srv.Client(), http.MethodGet, srv.URL, nil, nil, nil); err != nil {
		t.Fatal(err)
	}
	if gotBody != "" || gotType != "" {
		t.Errorf("bodyless GET sent body %q type %q", gotBody, gotType)
	}
}

// TestCallSkips204 pins that a 204 leaves out untouched and is no error.
func TestCallSkips204(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusNoContent)
	}))
	defer srv.Close()
	out := echo{N: 1}
	status, err := Call(context.Background(), nil, http.MethodPost, srv.URL, nil, echo{}, &out)
	if err != nil || status != http.StatusNoContent || out != (echo{N: 1}) {
		t.Fatalf("Call = (%d, %v), out %+v", status, err, out)
	}
}

// TestCallReplyCap pins that a 2xx reply past the cap is an error, and
// not a *StatusError.
func TestCallReplyCap(t *testing.T) {
	defer func(old int64) { maxReplyBytes = old }(maxReplyBytes)
	maxReplyBytes = 64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		WriteJSON(w, http.StatusOK, echo{S: strings.Repeat("x", 100)})
	}))
	defer srv.Close()
	var out echo
	_, err := Call(context.Background(), nil, http.MethodGet, srv.URL, nil, nil, &out)
	var se *StatusError
	if err == nil || errors.As(err, &se) || !TooLarge(err) {
		t.Fatalf("oversized reply: err = %v, want a non-status size error", err)
	}
}

// TestCallStatusError pins the refusal mapping: the {"error"} text, the
// trimmed-body fallback, and the Retry-After seconds.
func TestCallStatusError(t *testing.T) {
	cases := []struct {
		name       string
		status     int
		retryAfter string
		body       string
		msg        string
		wait       int
	}{
		{"json error", http.StatusTooManyRequests, "3", `{"error":"queue full"}`, "queue full", 3},
		{"plain body", http.StatusBadGateway, "", "  upstream down \n", "upstream down", 0},
		{"bad retry-after", http.StatusServiceUnavailable, "soon", `{"error":"shedding"}`, "shedding", 0},
		{"empty json error", http.StatusBadRequest, "", `{"error":""}`, `{"error":""}`, 0},
	}
	for _, c := range cases {
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if c.retryAfter != "" {
				w.Header().Set("Retry-After", c.retryAfter)
			}
			w.WriteHeader(c.status)
			io.WriteString(w, c.body)
		}))
		out := echo{N: 9}
		status, err := Call(context.Background(), nil, http.MethodGet, srv.URL, nil, nil, &out)
		srv.Close()
		var se *StatusError
		if !errors.As(err, &se) {
			t.Errorf("%s: err = %v, want *StatusError", c.name, err)
			continue
		}
		if status != c.status || se.Code != c.status || se.Msg != c.msg || se.RetryAfter != c.wait {
			t.Errorf("%s: status %d, error %+v; want code %d msg %q wait %d", c.name, status, *se, c.status, c.msg, c.wait)
		}
		if out != (echo{N: 9}) {
			t.Errorf("%s: refusal decoded into out: %+v", c.name, out)
		}
	}
}

// TestCallGarbledReplyIsNotStatusError pins that a 2xx whose body does
// not decode is a plain error: the peer answered but not with the
// protocol, which callers must not mistake for an HTTP-level refusal.
func TestCallGarbledReplyIsNotStatusError(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, `{"n":`)
	}))
	defer srv.Close()
	var out echo
	status, err := Call(context.Background(), nil, http.MethodGet, srv.URL, nil, nil, &out)
	var se *StatusError
	if err == nil || errors.As(err, &se) || status != http.StatusOK {
		t.Fatalf("garbled 2xx: (%d, %v), want a plain decode error", status, err)
	}
}

// TestCallTransportErrorIsNotStatusError pins that a dial failure is a
// plain error with no status.
func TestCallTransportErrorIsNotStatusError(t *testing.T) {
	srv := httptest.NewServer(http.NotFoundHandler())
	url := srv.URL
	srv.Close()
	status, err := Call(context.Background(), nil, http.MethodGet, url, nil, nil, nil)
	var se *StatusError
	if err == nil || errors.As(err, &se) || status != 0 {
		t.Fatalf("closed server: (%d, %v), want a transport error", status, err)
	}
}
