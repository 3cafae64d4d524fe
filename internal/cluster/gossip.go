package cluster

import (
	"context"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"time"

	"repro/internal/httpx"
	"repro/internal/service"
)

// cacheGossip is the coordinator's view of which node holds which cached
// result. Every scrubd node exposes its content-addressed result cache
// (GET /v1/cache/index lists fingerprints, GET /v1/cache/results/{fp}
// serves the bytes); the coordinator sweeps those indexes periodically
// and can then answer a whole job from any node's cache before
// re-running it. Entries are advisory — a stale holder simply 404s and
// the job falls through to normal execution — so sweeps never need to
// be synchronous with cache churn.
type cacheGossip struct {
	mu sync.Mutex
	// entries maps fingerprint → holder base URLs, sorted for
	// deterministic fetch order.
	entries   map[string][]string
	lastSweep time.Time
	sweeps    int64
}

func newCacheGossip() *cacheGossip {
	return &cacheGossip{entries: make(map[string][]string)}
}

// sweep polls every target node's cache index once and replaces the
// gossip table with what answered. A node that fails to answer simply
// drops out of the table until the next sweep. Each probe is bounded by
// timeout (0 = 2s).
func (g *cacheGossip) sweep(ctx context.Context, client *http.Client, targets []string, timeout time.Duration) {
	if timeout <= 0 {
		timeout = 2 * time.Second
	}
	type indexed struct {
		url string
		fps []string
	}
	results := make([]indexed, len(targets))
	var wg sync.WaitGroup
	for i, target := range targets {
		wg.Add(1)
		go func(i int, target string) {
			defer wg.Done()
			probeCtx, cancel := context.WithTimeout(ctx, timeout)
			defer cancel()
			fps, err := fetchCacheIndex(probeCtx, client, target)
			if err != nil {
				return
			}
			results[i] = indexed{url: target, fps: fps}
		}(i, target)
	}
	wg.Wait()

	next := make(map[string][]string)
	for _, r := range results {
		for _, fp := range r.fps {
			next[fp] = append(next[fp], r.url)
		}
	}
	for _, holders := range next {
		sort.Strings(holders)
	}
	g.mu.Lock()
	g.entries = next
	g.lastSweep = time.Now()
	g.sweeps++
	g.mu.Unlock()
}

// holders returns the nodes believed to cache a fingerprint.
func (g *cacheGossip) holders(fp string) []string {
	g.mu.Lock()
	defer g.mu.Unlock()
	return append([]string(nil), g.entries[fp]...)
}

// stats reports the table size and the age of the last successful sweep
// (negative when no sweep has completed yet).
func (g *cacheGossip) stats() (entries int, sweeps int64, age time.Duration) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.lastSweep.IsZero() {
		return len(g.entries), g.sweeps, -1
	}
	return len(g.entries), g.sweeps, time.Since(g.lastSweep)
}

// fetchCacheIndex lists one node's cached fingerprints.
func fetchCacheIndex(ctx context.Context, client *http.Client, baseURL string) ([]string, error) {
	var wire struct {
		Fingerprints []string `json:"fingerprints"`
	}
	if _, err := httpx.Call(ctx, client, http.MethodGet, baseURL+service.CacheIndexPath, nil, nil, &wire); err != nil {
		return nil, fmt.Errorf("cluster: cache index: %w", err)
	}
	return wire.Fingerprints, nil
}

// fetchCachedResult pulls one cached result from a holder and verifies
// it decodes to the requested fingerprint — a mislabeled or truncated
// body must never be served as the job's answer.
func fetchCachedResult(ctx context.Context, client *http.Client, baseURL, fp string) (*service.Result, error) {
	var res service.Result
	if _, err := httpx.Call(ctx, client, http.MethodGet, baseURL+service.CacheResultsPrefix+fp, nil, nil, &res); err != nil {
		return nil, fmt.Errorf("cluster: cached result: %w", err)
	}
	if res.Fingerprint != fp {
		return nil, fmt.Errorf("cluster: holder %s served result %q for requested %q", baseURL, res.Fingerprint, fp)
	}
	return &res, nil
}
