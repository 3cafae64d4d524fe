package httpx

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
)

// maxReplyBytes caps a decoded 2xx reply at 64 MiB: the bound the
// claims endpoint and the journal already put on a shard's worth of
// full per-replica results. A variable only so tests can shrink it.
var maxReplyBytes int64 = 64 << 20

// maxErrorBytes caps how much of a refusal's body is read for its
// message.
const maxErrorBytes = 4096

// StatusError is a non-2xx reply. It proves the peer is serving, which
// is what separates it from a transport failure: Call returns a plain
// error for a dial/read failure or a garbled 2xx body, never a
// *StatusError.
type StatusError struct {
	Code int
	// Msg is the reply's {"error"} text, or else its trimmed body.
	Msg string
	// RetryAfter is the Retry-After header in seconds (0 when absent).
	RetryAfter int
}

func (e *StatusError) Error() string {
	return fmt.Sprintf("%d %s: %s", e.Code, http.StatusText(e.Code), e.Msg)
}

// Call sends one request and decodes its JSON reply. A nil client means
// http.DefaultClient. A non-nil in is sent as the JSON body with
// Content-Type: application/json; hdr is added to the request. A 2xx
// reply other than 204 is decoded into a non-nil out, reading at most
// 64 MiB. Any other status returns a *StatusError. The status is
// returned whenever a reply arrived.
func Call(ctx context.Context, client *http.Client, method, url string, hdr http.Header, in, out any) (int, error) {
	if client == nil {
		client = http.DefaultClient
	}
	var body io.Reader
	if in != nil {
		raw, err := json.Marshal(in)
		if err != nil {
			return 0, fmt.Errorf("encode %s %s: %w", method, url, err)
		}
		body = bytes.NewReader(raw)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, body)
	if err != nil {
		return 0, err
	}
	for k, vs := range hdr {
		for _, v := range vs {
			req.Header.Add(k, v)
		}
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return resp.StatusCode, statusError(resp)
	}
	if out == nil || resp.StatusCode == http.StatusNoContent {
		return resp.StatusCode, nil
	}
	if err := json.NewDecoder(http.MaxBytesReader(nil, resp.Body, maxReplyBytes)).Decode(out); err != nil {
		return resp.StatusCode, fmt.Errorf("decode %s %s reply: %w", method, url, err)
	}
	return resp.StatusCode, nil
}

// statusError reads a refusal's message and Retry-After hint.
func statusError(resp *http.Response) *StatusError {
	se := &StatusError{Code: resp.StatusCode, Msg: "unreadable error body"}
	if raw, err := io.ReadAll(io.LimitReader(resp.Body, maxErrorBytes)); err == nil {
		var wire struct {
			Error string `json:"error"`
		}
		if json.Unmarshal(raw, &wire) == nil && wire.Error != "" {
			se.Msg = wire.Error
		} else {
			se.Msg = strings.TrimSpace(string(raw))
		}
	}
	if secs, err := strconv.Atoi(strings.TrimSpace(resp.Header.Get("Retry-After"))); err == nil && secs > 0 {
		se.RetryAfter = secs
	}
	return se
}
