package cluster

import (
	"context"
	"fmt"
	"net/http"
	"strings"
	"time"

	"repro/internal/httpx"
)

// DeadlineHeader carries the job deadline (RFC 3339, nanoseconds) on
// shard requests, so a worker bounds the simulation itself instead of
// relying on the coordinator's connection teardown to reach it.
const DeadlineHeader = "X-Scrubd-Deadline"

// postShard sends one shard request to a worker's base URL and decodes
// the response. Cancelling ctx aborts the request (and, on the worker,
// the simulation); a ctx deadline additionally propagates explicitly via
// DeadlineHeader. A refusal comes back as *httpx.StatusError.
func postShard(ctx context.Context, client *http.Client, baseURL string, req *ShardRequest) (*ShardResponse, error) {
	hdr := http.Header{}
	if dl, ok := ctx.Deadline(); ok {
		hdr.Set(DeadlineHeader, dl.Format(time.RFC3339Nano))
	}
	var resp ShardResponse
	if _, err := httpx.Call(ctx, client, http.MethodPost, baseURL+ShardPath, hdr, req, &resp); err != nil {
		return nil, fmt.Errorf("cluster: post shard: %w", err)
	}
	return &resp, nil
}

// Join announces a worker's base URL to a coordinator once.
func Join(ctx context.Context, client *http.Client, coordinatorURL, selfURL string) error {
	_, err := httpx.Call(ctx, client, http.MethodPost, strings.TrimSuffix(coordinatorURL, "/")+JoinPath,
		nil, JoinRequest{URL: selfURL}, nil)
	if err != nil {
		return fmt.Errorf("cluster: join %s: %w", coordinatorURL, err)
	}
	return nil
}

// JoinLoop keeps a worker registered: it retries the first join with a
// short backoff until it succeeds, then re-announces every interval so a
// restarted coordinator re-learns the fleet. It runs until ctx ends.
// logf (may be nil) receives join failures.
func JoinLoop(ctx context.Context, client *http.Client, coordinatorURL, selfURL string, interval time.Duration, logf func(format string, args ...any)) {
	if interval <= 0 {
		interval = 5 * time.Second
	}
	if logf == nil {
		logf = func(string, ...any) {}
	}
	retry := time.Second
	for {
		err := Join(ctx, client, coordinatorURL, selfURL)
		var wait time.Duration
		if err != nil {
			if ctx.Err() != nil {
				return
			}
			logf("cluster: join failed (retrying in %s): %v", retry, err)
			wait = retry
			if retry < interval {
				retry *= 2
			}
		} else {
			retry = time.Second
			wait = interval
		}
		select {
		case <-ctx.Done():
			return
		case <-time.After(wait):
		}
	}
}
