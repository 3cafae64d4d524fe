package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/httpx"
	"repro/internal/journal"
	"repro/internal/service"
)

// Shard planning.
const (
	// DefaultShardsPerWorker is how many shards a job targets per live
	// worker — more than one so a straggler doesn't serialise the tail.
	DefaultShardsPerWorker = 2
	// DefaultMaxShards caps a single job's shard count regardless of
	// fleet size.
	DefaultMaxShards = 32
)

// Speculative re-execution defaults: a shard is re-dispatched once it
// has run Factor × the median completed-shard duration (floored at
// MinWait), checked every Interval.
const (
	DefaultSpeculationFactor   = 1.5
	DefaultSpeculationMinWait  = 2 * time.Second
	DefaultSpeculationInterval = 100 * time.Millisecond
	defaultSpeculationQuantile = 0.5
)

// speculationConfig shapes the straggler detector.
type speculationConfig struct {
	Factor   float64
	MinWait  time.Duration
	Interval time.Duration
	Quantile float64
	Disabled bool
}

// Config assembles a Coordinator.
type Config struct {
	// Members is the worker registry (required).
	Members *Membership
	// Client performs shard dispatches (nil = http.DefaultClient). Shard
	// requests are bounded by the job context, not a client timeout.
	Client *http.Client
	// RetryBase / RetryMax shape the full-jitter backoff between failed
	// shard dispatch attempts (0 = DefaultRetryBase / DefaultRetryMax).
	RetryBase time.Duration
	RetryMax  time.Duration
	// RetrySeed fixes the jitter stream for deterministic tests
	// (0 = a fixed default stream).
	RetrySeed int64
	// SpeculationFactor / SpeculationMinWait / SpeculationInterval shape
	// the straggler detector (0 = the defaults above);
	// DisableSpeculation turns it off entirely.
	SpeculationFactor   float64
	SpeculationMinWait  time.Duration
	SpeculationInterval time.Duration
	DisableSpeculation  bool
}

// Coordinator turns one replicated job into seed-ranged shards spread
// over the live workers. Placement is consistent-hashed (identical
// shards land where their cache entries live), execution is arbitrated
// by a per-campaign claims board — the primary ring dispatch, idle
// workers pulling queued shards (work stealing), and speculative
// re-dispatches of stragglers all race idempotently, first byte-
// identical result wins — and whole jobs can be answered from any
// node's gossiped cache. Its Runner plugs into service.Service, so the
// coordinator node's queue, dedup, and content-addressed cache operate
// unchanged — the fingerprint still addresses the whole job.
type Coordinator struct {
	ms      *Membership
	client  *http.Client
	backoff *Backoff
	spec    speculationConfig
	gossip  *cacheGossip

	jobsSharded      atomic.Int64
	jobsLocal        atomic.Int64
	jobsResumed      atomic.Int64
	shardsDispatched atomic.Int64
	shardsCompleted  atomic.Int64
	shardFailovers   atomic.Int64
	shardsLocal      atomic.Int64
	shardsResumed    atomic.Int64

	// Elastic-execution counters: the claims board's steal/speculation
	// races and the gossip cache's job-level answers.
	claimSeq             atomic.Int64
	stealsServed         atomic.Int64
	stealsWon            atomic.Int64
	stealsLost           atomic.Int64
	speculationsLaunched atomic.Int64
	speculativeWins      atomic.Int64
	speculativeLosses    atomic.Int64
	duplicateResults     atomic.Int64
	integrityFailures    atomic.Int64
	gossipAnswers        atomic.Int64
	gossipMisses         atomic.Int64

	// boardMu guards the active campaign boards and the steal-token
	// routing table for the HTTP claim endpoints.
	boardMu sync.Mutex
	boards  []*board
	claims  map[string]stealRef
}

// stealRef routes a delivered claim token back to its board and task.
type stealRef struct {
	b *board
	t *shardTask
}

// NewCoordinator builds a coordinator over a membership.
func NewCoordinator(cfg Config) *Coordinator {
	if cfg.Members == nil {
		panic("cluster: Coordinator needs a Membership")
	}
	c := &Coordinator{
		ms:     cfg.Members,
		client: cfg.Client,
		gossip: newCacheGossip(),
		claims: make(map[string]stealRef),
		spec: speculationConfig{
			Factor:   cfg.SpeculationFactor,
			MinWait:  cfg.SpeculationMinWait,
			Interval: cfg.SpeculationInterval,
			Quantile: defaultSpeculationQuantile,
			Disabled: cfg.DisableSpeculation,
		},
	}
	if c.spec.Factor <= 0 {
		c.spec.Factor = DefaultSpeculationFactor
	}
	if c.spec.MinWait <= 0 {
		c.spec.MinWait = DefaultSpeculationMinWait
	}
	if c.spec.Interval <= 0 {
		c.spec.Interval = DefaultSpeculationInterval
	}
	c.backoff = NewBackoff(cfg.RetryBase, cfg.RetryMax, cfg.RetrySeed)
	return c
}

// Members exposes the coordinator's worker registry.
func (c *Coordinator) Members() *Membership { return c.ms }

// Runner adapts the coordinator to the service's job executor interface.
func (c *Coordinator) Runner() service.Runner {
	return func(ctx context.Context, spec service.Spec) (*service.Result, error) {
		return c.Run(ctx, spec)
	}
}

// shardRange is one planned replica range.
type shardRange struct{ first, count int }

// planShards splits n replicas into at most `shards` contiguous ranges,
// as evenly as possible. Purely arithmetic: the merge result does not
// depend on the split, only shard sizing does.
func planShards(n, shards int) []shardRange {
	if shards < 1 {
		shards = 1
	}
	if shards > n {
		shards = n
	}
	base, rem := n/shards, n%shards
	plan := make([]shardRange, 0, shards)
	first := 0
	for i := 0; i < shards; i++ {
		count := base
		if i < rem {
			count++
		}
		plan = append(plan, shardRange{first: first, count: count})
		first += count
	}
	return plan
}

// registerBoard admits a campaign board to the steal/claims endpoints.
func (c *Coordinator) registerBoard(b *board) {
	c.boardMu.Lock()
	defer c.boardMu.Unlock()
	c.boards = append(c.boards, b)
}

// unregisterBoard retires a finished campaign and forgets its
// outstanding steal tokens — a late delivery for one gets a clean
// "unknown token" ack and the worker drops the work.
func (c *Coordinator) unregisterBoard(b *board) {
	c.boardMu.Lock()
	defer c.boardMu.Unlock()
	for i, cur := range c.boards {
		if cur == b {
			c.boards = append(c.boards[:i], c.boards[i+1:]...)
			break
		}
	}
	for token, ref := range c.claims {
		if ref.b == b {
			delete(c.claims, token)
		}
	}
}

// Run executes one normalised spec across the cluster and merges the
// shards into the same Result a single node would produce. With no live
// workers the whole job runs locally (the coordinator is itself a
// capable scrubd node); either way a Spec.TimeoutSec budget bounds the
// execution even when the caller did not install a deadline, so local
// fallback and remote dispatch observe the same clock.
//
// Before planning, the gossiped cache index is consulted: when any node
// in the fleet already caches this fingerprint, its bytes answer the
// whole job (a Result's canonical JSON survives the round trip, so the
// answer is byte-identical to recomputation).
//
// When the job context carries a service.ShardLog (journal-backed
// daemons), Run journals the shard plan and each completed shard's wire
// payload, and on a resumed job reuses the journaled plan — checkpoints
// are keyed by replica range, so re-planning under a different fleet
// size would orphan them — skipping every range with a valid checkpoint.
func (c *Coordinator) Run(ctx context.Context, spec service.Spec) (*service.Result, error) {
	sys, mech, wl, err := spec.Build()
	if err != nil {
		return nil, err
	}
	// Deadline parity: the service normally installs the TimeoutSec
	// budget before invoking the runner, but a directly driven
	// coordinator must not let local fallback run unbounded while remote
	// dispatch is deadline-checked.
	if spec.TimeoutSec > 0 {
		if _, ok := ctx.Deadline(); !ok {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, time.Duration(spec.TimeoutSec*float64(time.Second)))
			defer cancel()
		}
	}
	fp := spec.Fingerprint()
	n := spec.Replicas
	sl := service.ShardLogFrom(ctx)

	if res, ok := c.gossipAnswer(ctx, fp); ok {
		return res, nil
	}

	var plan []shardRange
	if sl != nil && len(sl.Plan) > 0 {
		// Resumed job: reuse the journaled split even if the fleet has
		// changed shape (or vanished — runTask falls back locally).
		plan = make([]shardRange, len(sl.Plan))
		for i, rg := range sl.Plan {
			plan[i] = shardRange{first: rg.First, count: rg.Count}
		}
		c.jobsResumed.Add(1)
	} else {
		alive := c.ms.AliveCount()
		if alive == 0 {
			c.jobsLocal.Add(1)
			rep, err := core.RunReplicatedContext(ctx, sys, mech, wl, n)
			if err != nil {
				return nil, err
			}
			return service.NewResult(spec, rep), nil
		}
		plan = planShards(n, min(alive*DefaultShardsPerWorker, DefaultMaxShards))
		if sl != nil {
			jp := make([]journal.ShardRange, len(plan))
			for i, rg := range plan {
				jp[i] = journal.ShardRange{First: rg.first, Count: rg.count}
			}
			sl.RecordPlan(jp)
		}
	}
	c.jobsSharded.Add(1)
	service.ReportShardProgress(ctx, 0, len(plan))

	runCtx, cancelRun := context.WithCancel(ctx)
	defer cancelRun()

	b := newBoard(c, fp, spec, plan, cancelRun)
	b.sys, b.mech, b.wl = sys, mech, wl
	if dl, ok := ctx.Deadline(); ok {
		b.deadline = dl
	}
	if sl != nil {
		b.onWin = func(rg shardRange, payload []byte) {
			sl.RecordShard(journal.ShardRange{First: rg.first, Count: rg.count}, payload)
		}
	}

	var (
		wg     sync.WaitGroup
		specWg sync.WaitGroup
		done   atomic.Int32
		errs   = make([]error, len(plan))
	)
	// Revive journaled checkpoints before the board starts handing out
	// steals, so an already-durable range is never re-executed.
	for _, t := range b.tasks {
		taskCtx, taskCancel := context.WithCancel(runCtx)
		t.ctx, t.cancel = taskCtx, taskCancel
		if sl == nil {
			continue
		}
		jrg := journal.ShardRange{First: t.rg.first, Count: t.rg.count}
		raw := sl.Checkpoints[jrg]
		if resp, ok := checkpointResponse(raw, t.rg); ok {
			b.revive(t, resp, raw)
			c.shardsResumed.Add(1)
			service.ReportShardProgress(ctx, int(done.Add(1)), len(plan))
		}
	}
	c.registerBoard(b)
	defer c.unregisterBoard(b)

	for i, t := range b.tasks {
		if b.taskDone(t) {
			continue // revived from a checkpoint
		}
		wg.Add(1)
		go func(i int, t *shardTask) {
			defer wg.Done()
			defer t.cancel()
			if err := c.runTask(t.ctx, b, t); err != nil {
				errs[i] = err
				cancelRun() // a doomed job should stop burning the fleet
				return
			}
			service.ReportShardProgress(ctx, int(done.Add(1)), len(plan))
		}(i, t)
	}
	if !c.spec.Disabled && len(plan) > 1 {
		specWg.Add(1)
		go func() {
			defer specWg.Done()
			c.speculate(runCtx, b, &specWg)
		}()
	}
	wg.Wait()
	cancelRun() // stop the speculation monitor and any losing claims
	specWg.Wait()

	// An integrity failure dominates every other outcome: two honest
	// executions of a deterministic range can never disagree, so a byte
	// mismatch means a worker computed (or transported) a wrong answer
	// and nothing from this campaign can be trusted into a merge.
	if err := b.failed(); err != nil {
		return nil, err
	}
	if err := firstShardError(ctx, errs); err != nil {
		return nil, err
	}
	shards := make([]*core.Shard, len(plan))
	for i, t := range b.tasks {
		if t.winner == nil {
			return nil, fmt.Errorf("cluster: shard [%d,+%d) finished without a result", t.rg.first, t.rg.count)
		}
		sh, err := t.winner.Shard(t.rg.first, t.rg.count)
		if err != nil {
			return nil, err
		}
		shards[i] = sh
	}
	rep, err := core.MergeReplicated(mech.Name, wl.Name, n, shards)
	if err != nil {
		return nil, err
	}
	return service.NewResult(spec, rep), nil
}

// gossipAnswer tries to answer a whole job from another node's cache.
func (c *Coordinator) gossipAnswer(ctx context.Context, fp string) (*service.Result, bool) {
	holders := c.gossip.holders(fp)
	if len(holders) == 0 {
		return nil, false
	}
	for _, holder := range holders {
		res, err := fetchCachedResult(ctx, c.client, holder, fp)
		if err != nil {
			continue // stale index entry or unreachable holder; try the next
		}
		c.gossipAnswers.Add(1)
		return res, true
	}
	c.gossipMisses.Add(1)
	return nil, false
}

// GossipOnce sweeps every live worker's cache index into the gossip
// table. Each probe is bounded by timeout (0 = 2s).
func (c *Coordinator) GossipOnce(ctx context.Context, timeout time.Duration) {
	var targets []string
	for _, m := range c.ms.List() {
		if m.Alive {
			targets = append(targets, m.URL)
		}
	}
	c.gossip.sweep(ctx, c.client, targets, timeout)
}

// GossipLoop sweeps the fleet's cache indexes every interval until ctx
// ends (0 = 2s).
func (c *Coordinator) GossipLoop(ctx context.Context, interval time.Duration) {
	if interval <= 0 {
		interval = 2 * time.Second
	}
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-ticker.C:
			c.GossipOnce(ctx, interval)
		}
	}
}

// checkpointResponse revives a journaled shard checkpoint (a
// ShardResponse wire payload). A missing or corrupt checkpoint reports
// !ok and the shard recomputes — checkpoints are an optimisation, never
// load-bearing for correctness.
func checkpointResponse(raw json.RawMessage, rg shardRange) (*ShardResponse, bool) {
	if len(raw) == 0 {
		return nil, false
	}
	var resp ShardResponse
	if err := json.Unmarshal(raw, &resp); err != nil {
		return nil, false
	}
	if _, err := resp.Shard(rg.first, rg.count); err != nil {
		return nil, false
	}
	return &resp, true
}

// firstShardError picks the most informative failure: the job context's
// own error when the job was cancelled, otherwise the first shard error
// that is not a mere echo of sibling cancellation.
func firstShardError(ctx context.Context, errs []error) error {
	if err := ctx.Err(); err != nil {
		for _, e := range errs {
			if e != nil {
				return fmt.Errorf("cluster: job canceled: %w", e)
			}
		}
		return err
	}
	var fallback error
	for _, e := range errs {
		if e == nil {
			continue
		}
		if !errors.Is(e, context.Canceled) {
			return e
		}
		if fallback == nil {
			fallback = e
		}
	}
	return fallback
}

// runTask drives one shard task to completion as its primary claimant,
// failing over across workers: placement follows the consistent-hash
// sequence for the task's key (owner first, then the deterministic
// failover order), a worker that errors is excluded for this shard (and
// declared dead on transport errors, where the whole node is suspect —
// an HTTP-level error proves the node is at least serving). Failed
// attempts are separated by full-jitter exponential backoff; while the
// primary is parked the range is open for stealing. When no eligible
// worker remains the shard runs locally on the coordinator. A task whose
// winner arrived through another claim (a steal or a speculation) ends
// the loop with success.
func (c *Coordinator) runTask(ctx context.Context, b *board, t *shardTask) error {
	exclude := make(map[string]bool)
	for attempt := 0; ; attempt++ {
		if b.taskDone(t) {
			return nil
		}
		id, baseURL, err := c.ms.acquireRanked(ctx, t.key, exclude)
		out := c.claim(ctx, b, t, claimPrimary, id, baseURL, err)
		if out.local {
			c.shardsLocal.Add(1)
		} else if out.delivered {
			c.shardsCompleted.Add(1)
		}
		if out.delivered {
			return out.err
		}
		if b.taskDone(t) {
			return nil // another claim won the range
		}
		if out.worker == "" {
			return out.err // the local run or the acquisition failed
		}
		if ctx.Err() != nil {
			return fmt.Errorf("cluster: shard [%d,+%d): %w", t.rg.first, t.rg.count, ctx.Err())
		}
		exclude[out.worker] = true
		c.shardFailovers.Add(1)
		if out.transport {
			c.ms.markDead(out.worker)
		}
		if err := c.backoff.Sleep(ctx, attempt); err != nil {
			if b.taskDone(t) {
				return nil
			}
			return fmt.Errorf("cluster: shard [%d,+%d): %w", t.rg.first, t.rg.count, err)
		}
	}
}

// claimOutcome is how one claim attempt on a shard task ended.
type claimOutcome struct {
	local     bool   // no worker was eligible: the shard ran on the coordinator
	worker    string // the member dispatched to ("" when none was acquired)
	delivered bool   // a result reached the board; err is then complete's
	transport bool   // the dispatch failed below HTTP: the node is suspect
	err       error
}

// claim makes one execution attempt on t under a claim of kind, given
// the caller's worker acquisition (id, baseURL, acqErr). With no
// eligible worker (ErrNoWorkers) the shard runs on the coordinator, a
// primary then claiming as claimLocal. Otherwise it registers the
// claim, posts the shard, checks the reply's range, feeds the worker's
// breaker and releases its slot. A result goes to the board; a failed
// attempt withdraws its claim, re-opening the range for stealing.
func (c *Coordinator) claim(ctx context.Context, b *board, t *shardTask, kind claimKind, id, baseURL string, acqErr error) claimOutcome {
	if errors.Is(acqErr, ErrNoWorkers) {
		if kind == claimPrimary {
			kind = claimLocal
		}
		token := b.register(t, kind, "coordinator")
		sh, err := core.RunShardContext(ctx, b.sys, b.mech, b.wl, t.rg.first, t.rg.count)
		if err != nil {
			b.releaseClaim(t, token)
			return claimOutcome{local: true, err: err}
		}
		_, _, err = b.complete(t, token, NewShardResponse(sh))
		return claimOutcome{local: true, delivered: true, err: err}
	}
	if acqErr != nil {
		return claimOutcome{err: fmt.Errorf("cluster: shard [%d,+%d): %w", t.rg.first, t.rg.count, acqErr)}
	}
	token := b.register(t, kind, id)
	c.shardsDispatched.Add(1)
	resp, err := postShard(ctx, c.client, baseURL, &ShardRequest{Spec: b.spec, First: t.rg.first, Count: t.rg.count})
	if err == nil {
		_, err = resp.Shard(t.rg.first, t.rg.count)
	}
	if err != nil {
		b.releaseClaim(t, token)
	}
	// An HTTP-level refusal proves the transport works: it feeds the
	// breaker as a success even though this shard moves on. Anything else
	// (dial/read failure, garbled body) counts against the breaker and
	// marks the node suspect.
	var se *httpx.StatusError
	transport := err != nil && !errors.As(err, &se)
	if transport {
		c.ms.ReportFailure(id)
	} else {
		c.ms.ReportSuccess(id)
	}
	c.ms.release(id)
	if err != nil {
		return claimOutcome{worker: id, transport: transport, err: err}
	}
	_, _, err = b.complete(t, token, resp)
	return claimOutcome{worker: id, delivered: true, err: err}
}

// speculate watches a campaign for stragglers and re-dispatches each at
// most once. The monitor exits when the campaign's context ends.
func (c *Coordinator) speculate(ctx context.Context, b *board, specWg *sync.WaitGroup) {
	ticker := time.NewTicker(c.spec.Interval)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case now := <-ticker.C:
			for _, t := range b.stragglers(now, c.spec) {
				c.speculationsLaunched.Add(1)
				specWg.Add(1)
				go func(t *shardTask) {
					defer specWg.Done()
					c.speculateTask(t.ctx, b, t)
				}(t)
			}
		}
	}
}

// speculateTask runs one speculative claim: a single extra execution
// attempt (least-loaded placement, deliberately off the straggling
// ring owner) racing the primary. Failures simply abandon the claim —
// the primary still owns the range, so a speculation can only ever
// help.
func (c *Coordinator) speculateTask(ctx context.Context, b *board, t *shardTask) {
	if b.taskDone(t) {
		return
	}
	id, baseURL, err := c.ms.acquire(ctx, nil)
	c.claim(ctx, b, t, claimSpeculative, id, baseURL, err)
}

// maxClaimBodyBytes caps the claims endpoint's body: a stolen shard's
// result carries every replica payload, so it gets the journal's
// generous 64 MiB bound instead of the 1 MiB control-plane default.
const maxClaimBodyBytes = 64 << 20

// Handler serves the coordinator's cluster endpoints: worker join, the
// membership listing, the consistent-hash ring, and the work-stealing
// pair (hand out a pending shard; accept a claimed result). Mount it
// alongside the service handler.
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST "+JoinPath, func(rw http.ResponseWriter, r *http.Request) {
		var req JoinRequest
		if err := httpx.DecodeJSON(rw, r, 0, true, &req); err != nil {
			httpx.WriteError(rw, httpx.DecodeStatus(err), fmt.Errorf("cluster: decode join request: %w", err))
			return
		}
		m, err := c.ms.Join(req.URL)
		if err != nil {
			httpx.WriteError(rw, http.StatusBadRequest, err)
			return
		}
		httpx.WriteJSON(rw, http.StatusOK, m)
	})
	mux.HandleFunc("GET "+WorkersPath, func(rw http.ResponseWriter, r *http.Request) {
		httpx.WriteJSON(rw, http.StatusOK, struct {
			Workers []Member `json:"workers"`
		}{c.ms.List()})
	})
	mux.HandleFunc("GET "+RingPath, func(rw http.ResponseWriter, r *http.Request) {
		ring := c.ms.Ring()
		httpx.WriteJSON(rw, http.StatusOK, struct {
			Version uint64   `json:"version"`
			Members []string `json:"members"`
		}{ring.Version(), ring.Members()})
	})
	mux.HandleFunc("POST "+StealPath, func(rw http.ResponseWriter, r *http.Request) {
		var req JoinRequest
		if err := httpx.DecodeJSON(rw, r, 0, true, &req); err != nil {
			httpx.WriteError(rw, httpx.DecodeStatus(err), fmt.Errorf("cluster: decode steal request: %w", err))
			return
		}
		sr, ok := c.stealPending(req.URL)
		if !ok {
			rw.WriteHeader(http.StatusNoContent)
			return
		}
		httpx.WriteJSON(rw, http.StatusOK, sr)
	})
	mux.HandleFunc("POST "+ClaimsPath, func(rw http.ResponseWriter, r *http.Request) {
		// Claim results carry a full ShardResponse — per-replica payloads
		// that legitimately run to megabytes — so this endpoint gets a far
		// larger cap than the control-plane default.
		var req ClaimResult
		if err := httpx.DecodeJSON(rw, r, maxClaimBodyBytes, true, &req); err != nil {
			httpx.WriteError(rw, httpx.DecodeStatus(err), fmt.Errorf("cluster: decode claim result: %w", err))
			return
		}
		if req.Token == "" || req.Response == nil {
			httpx.WriteError(rw, http.StatusBadRequest, errors.New("cluster: claim result needs token and response"))
			return
		}
		ack := c.deliverClaim(req.Token, req.Response)
		httpx.WriteJSON(rw, http.StatusOK, ack)
	})
	return mux
}

// stealPending hands one stealable shard from any active campaign to an
// idle worker, registering the claim token for later delivery.
func (c *Coordinator) stealPending(workerURL string) (*StealResponse, bool) {
	c.boardMu.Lock()
	boards := append([]*board(nil), c.boards...)
	c.boardMu.Unlock()
	for _, b := range boards {
		req, token, t, ok := b.stealTask(workerURL)
		if !ok {
			continue
		}
		c.boardMu.Lock()
		c.claims[token] = stealRef{b: b, t: t}
		c.boardMu.Unlock()
		c.stealsServed.Add(1)
		sr := &StealResponse{Token: token, Shard: *req}
		if !b.deadline.IsZero() {
			sr.Deadline = b.deadline.Format(time.RFC3339Nano)
		}
		return sr, true
	}
	return nil, false
}

// deliverClaim routes a stolen shard's result to its board. An unknown
// token (campaign finished, coordinator restarted) is acked as
// not-accepted so the worker drops the work — some other claim owns the
// range.
func (c *Coordinator) deliverClaim(token string, resp *ShardResponse) ClaimAck {
	c.boardMu.Lock()
	ref, ok := c.claims[token]
	if ok {
		delete(c.claims, token)
	}
	c.boardMu.Unlock()
	if !ok {
		return ClaimAck{Accepted: false}
	}
	known, won, _ := ref.b.complete(ref.t, token, resp)
	return ClaimAck{Accepted: known, Won: won}
}

// RingVersion exposes the placement epoch for health and metrics.
func (c *Coordinator) RingVersion() uint64 { return c.ms.RingVersion() }

// CoordinatorSnapshot is a point-in-time view of the coordinator's
// dispatch counters, claims-board races, gossip table, and fleet.
type CoordinatorSnapshot struct {
	Workers           int   `json:"workers"`
	WorkersAlive      int   `json:"workers_alive"`
	WorkersEvicted    int64 `json:"workers_evicted"`
	JobsSharded       int64 `json:"jobs_sharded"`
	JobsLocal         int64 `json:"jobs_local"`
	JobsResumed       int64 `json:"jobs_resumed"`
	ShardsDispatched  int64 `json:"shards_dispatched"`
	ShardsCompleted   int64 `json:"shards_completed"`
	ShardFailovers    int64 `json:"shard_failovers"`
	ShardsLocal       int64 `json:"shards_local"`
	ShardsResumed     int64 `json:"shards_resumed"`
	HeartbeatFailures int64 `json:"heartbeat_failures"`

	RingVersion          uint64  `json:"ring_version"`
	StealsServed         int64   `json:"steals_served"`
	StealsWon            int64   `json:"steals_won"`
	StealsLost           int64   `json:"steals_lost"`
	SpeculationsLaunched int64   `json:"speculations_launched"`
	SpeculativeWins      int64   `json:"speculative_wins"`
	SpeculativeLosses    int64   `json:"speculative_losses"`
	DuplicateResults     int64   `json:"duplicate_results"`
	IntegrityFailures    int64   `json:"integrity_failures"`
	GossipAnswers        int64   `json:"gossip_answers"`
	GossipMisses         int64   `json:"gossip_misses"`
	GossipEntries        int     `json:"gossip_entries"`
	GossipSweeps         int64   `json:"gossip_sweeps"`
	GossipAgeSeconds     float64 `json:"gossip_age_seconds"`
}

// Snapshot returns the coordinator's counters.
func (c *Coordinator) Snapshot() CoordinatorSnapshot {
	entries, sweeps, age := c.gossip.stats()
	ageSec := age.Seconds()
	if age < 0 {
		ageSec = -1
	}
	return CoordinatorSnapshot{
		Workers:           c.ms.Size(),
		WorkersAlive:      c.ms.AliveCount(),
		WorkersEvicted:    c.ms.WorkersEvicted(),
		JobsSharded:       c.jobsSharded.Load(),
		JobsLocal:         c.jobsLocal.Load(),
		JobsResumed:       c.jobsResumed.Load(),
		ShardsDispatched:  c.shardsDispatched.Load(),
		ShardsCompleted:   c.shardsCompleted.Load(),
		ShardFailovers:    c.shardFailovers.Load(),
		ShardsLocal:       c.shardsLocal.Load(),
		ShardsResumed:     c.shardsResumed.Load(),
		HeartbeatFailures: c.ms.HeartbeatFailures(),

		RingVersion:          c.ms.RingVersion(),
		StealsServed:         c.stealsServed.Load(),
		StealsWon:            c.stealsWon.Load(),
		StealsLost:           c.stealsLost.Load(),
		SpeculationsLaunched: c.speculationsLaunched.Load(),
		SpeculativeWins:      c.speculativeWins.Load(),
		SpeculativeLosses:    c.speculativeLosses.Load(),
		DuplicateResults:     c.duplicateResults.Load(),
		IntegrityFailures:    c.integrityFailures.Load(),
		GossipAnswers:        c.gossipAnswers.Load(),
		GossipMisses:         c.gossipMisses.Load(),
		GossipEntries:        entries,
		GossipSweeps:         sweeps,
		GossipAgeSeconds:     ageSec,
	}
}

// WritePrometheus renders the coordinator counters in the Prometheus
// text format; scrubd appends it to /metrics on coordinator nodes.
func (c *Coordinator) WritePrometheus(out io.Writer) error {
	s := c.Snapshot()
	metrics := []httpx.Metric{
		httpx.Gauge("scrubd_cluster_workers", "Registered workers, dead or alive.", float64(s.Workers)),
		httpx.Gauge("scrubd_cluster_workers_alive", "Workers currently passing heartbeats.", float64(s.WorkersAlive)),
		httpx.Counter("scrubd_cluster_jobs_sharded_total", "Jobs executed as sharded cluster runs.", float64(s.JobsSharded)),
		httpx.Counter("scrubd_cluster_jobs_local_total", "Jobs executed wholly on the coordinator.", float64(s.JobsLocal)),
		httpx.Counter("scrubd_cluster_shards_dispatched_total", "Shard dispatches attempted.", float64(s.ShardsDispatched)),
		httpx.Counter("scrubd_cluster_shards_completed_total", "Shards completed by workers.", float64(s.ShardsCompleted)),
		httpx.Counter("scrubd_cluster_shard_failovers_total", "Shard attempts moved to another worker.", float64(s.ShardFailovers)),
		httpx.Counter("scrubd_cluster_shards_local_total", "Shards executed locally as fallback.", float64(s.ShardsLocal)),
		httpx.Counter("scrubd_cluster_shards_resumed_total", "Shards revived from journal checkpoints.", float64(s.ShardsResumed)),
		httpx.Counter("scrubd_cluster_jobs_resumed_total", "Jobs resumed from a journaled shard plan.", float64(s.JobsResumed)),
		httpx.Counter("scrubd_cluster_heartbeat_failures_total", "Failed worker health probes.", float64(s.HeartbeatFailures)),
		httpx.Counter("scrubd_cluster_workers_evicted_total", "Dead workers evicted after the TTL.", float64(s.WorkersEvicted)),
		httpx.Gauge("scrubd_cluster_ring_version", "Consistent-hash placement epoch (bumps on join/evict).", float64(s.RingVersion)),
		httpx.Counter("scrubd_cluster_steals_served_total", "Pending shards handed to idle workers.", float64(s.StealsServed)),
		httpx.Counter("scrubd_cluster_steals_won_total", "Stolen-shard results that won their range.", float64(s.StealsWon)),
		httpx.Counter("scrubd_cluster_steals_lost_total", "Stolen-shard results beaten by another claim.", float64(s.StealsLost)),
		httpx.Counter("scrubd_cluster_speculations_launched_total", "Straggling shards re-dispatched speculatively.", float64(s.SpeculationsLaunched)),
		httpx.Counter("scrubd_cluster_speculative_wins_total", "Speculative results that won their range.", float64(s.SpeculativeWins)),
		httpx.Counter("scrubd_cluster_speculative_losses_total", "Speculative results beaten by another claim.", float64(s.SpeculativeLosses)),
		httpx.Counter("scrubd_cluster_duplicate_results_total", "Byte-identical losing results discarded.", float64(s.DuplicateResults)),
		httpx.Counter("scrubd_cluster_integrity_failures_total", "Campaigns aborted on divergent shard results.", float64(s.IntegrityFailures)),
		httpx.Counter("scrubd_cluster_gossip_answers_total", "Jobs answered from a remote node's cache.", float64(s.GossipAnswers)),
		httpx.Counter("scrubd_cluster_gossip_misses_total", "Gossip lookups whose holders all failed.", float64(s.GossipMisses)),
		httpx.Gauge("scrubd_cluster_gossip_entries", "Fingerprints in the gossiped cache index.", float64(s.GossipEntries)),
		httpx.Counter("scrubd_cluster_gossip_sweeps_total", "Completed cache-index sweeps.", float64(s.GossipSweeps)),
		httpx.Gauge("scrubd_cluster_gossip_age_seconds", "Seconds since the last cache-index sweep (-1 = never).", s.GossipAgeSeconds),
	}
	if err := httpx.WriteProm(out, metrics); err != nil {
		return err
	}
	// Per-worker labeled series: breaker position and transport retries.
	members := c.ms.List()
	if len(members) == 0 {
		return nil
	}
	states := c.ms.BreakerStates()
	if _, err := fmt.Fprintf(out, "# HELP scrubd_cluster_breaker_state Worker circuit-breaker position (0=closed, 1=half-open, 2=open).\n# TYPE scrubd_cluster_breaker_state gauge\n"); err != nil {
		return err
	}
	for _, m := range members {
		if _, err := fmt.Fprintf(out, "scrubd_cluster_breaker_state{worker=%q} %d\n", m.ID, states[m.ID]); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(out, "# HELP scrubd_cluster_worker_retries_total Transport-failed shard dispatches per worker.\n# TYPE scrubd_cluster_worker_retries_total counter\n"); err != nil {
		return err
	}
	for _, m := range members {
		if _, err := fmt.Fprintf(out, "scrubd_cluster_worker_retries_total{worker=%q} %d\n", m.ID, m.Retries); err != nil {
			return err
		}
	}
	return nil
}
