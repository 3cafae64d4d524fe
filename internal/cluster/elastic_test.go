package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/service"
)

// --- Consistent-hash ring ---

func TestRingSequenceDeterministicAndComplete(t *testing.T) {
	ids := []string{"worker-001", "worker-002", "worker-003", "worker-004"}
	r1 := newRing(1, ids)
	r2 := newRing(1, []string{"worker-003", "worker-001", "worker-004", "worker-002"})
	for _, key := range []string{"a", "b", shardKey("fp", 0, 4), shardKey("fp", 4, 4)} {
		s1, s2 := r1.Sequence(key), r2.Sequence(key)
		if len(s1) != len(ids) {
			t.Fatalf("Sequence(%q) covers %d members, want %d", key, len(s1), len(ids))
		}
		seen := map[string]bool{}
		for i := range s1 {
			if s1[i] != s2[i] {
				t.Fatalf("Sequence(%q) depends on input order: %v vs %v", key, s1, s2)
			}
			if seen[s1[i]] {
				t.Fatalf("Sequence(%q) repeats member %s", key, s1[i])
			}
			seen[s1[i]] = true
		}
		if r1.Owner(key) != s1[0] {
			t.Errorf("Owner(%q) = %s, Sequence[0] = %s", key, r1.Owner(key), s1[0])
		}
	}
	if newRing(1, nil).Sequence("x") != nil {
		t.Error("empty ring should yield a nil sequence")
	}
}

// TestRingRemapMinimal is the consistent-hashing contract: removing one
// member only remaps the keys that member owned; every other key keeps
// its owner (and so its co-located cache entries).
func TestRingRemapMinimal(t *testing.T) {
	ids := []string{"worker-001", "worker-002", "worker-003", "worker-004", "worker-005"}
	before := newRing(1, ids)
	after := newRing(2, ids[:4]) // worker-005 evicted

	keys := make([]string, 0, 256)
	for i := 0; i < 256; i++ {
		keys = append(keys, shardKey(fmt.Sprintf("fp-%03d", i), i, 4))
	}
	moved, ownedByRemoved := 0, 0
	for _, key := range keys {
		was, is := before.Owner(key), after.Owner(key)
		if was == "worker-005" {
			ownedByRemoved++
			continue
		}
		if was != is {
			moved++
			t.Errorf("key %q moved %s → %s though its owner survived", key, was, is)
		}
	}
	if ownedByRemoved == 0 {
		t.Fatal("no key was owned by the removed member; test proves nothing")
	}
	_ = moved
}

// TestRingVersionBumpsOnChurnOnly checks the placement epoch moves on
// join and eviction but not on health flips — a bouncing worker must
// not reshuffle placements.
func TestRingVersionBumpsOnChurnOnly(t *testing.T) {
	ms := NewMembership(MembershipConfig{WorkerTTL: time.Minute})
	v0 := ms.RingVersion()
	a := mustJoin(t, ms, "http://10.0.0.1:1")
	mustJoin(t, ms, "http://10.0.0.2:1")
	v1 := ms.RingVersion()
	if v1 == v0 {
		t.Fatal("join did not bump the ring version")
	}
	ms.markDead(a.ID)
	if ms.RingVersion() != v1 {
		t.Error("health flip bumped the ring version")
	}
	if got := len(ms.Ring().Members()); got != 2 {
		t.Errorf("dead member dropped off the ring: %d members", got)
	}
	// Advance the clock past the TTL; the eviction sweep must bump.
	base := time.Now()
	ms.now = func() time.Time { return base.Add(2 * time.Minute) }
	ms.evictExpired()
	if ms.RingVersion() == v1 {
		t.Error("TTL eviction did not bump the ring version")
	}
	if got := len(ms.Ring().Members()); got != 1 {
		t.Errorf("evicted member still on the ring: %d members", got)
	}
}

// TestAcquireRankedFollowsRing checks keyed acquisition prefers the
// key's ring owner and falls over in ring order when the owner is
// excluded.
func TestAcquireRankedFollowsRing(t *testing.T) {
	ms := NewMembership(MembershipConfig{PerWorkerInFlight: 2})
	for i := 1; i <= 3; i++ {
		mustJoin(t, ms, fmt.Sprintf("http://10.0.0.%d:1", i))
	}
	key := shardKey("some-fingerprint", 0, 8)
	seq := ms.Ring().Sequence(key)
	ctx := context.Background()

	id, _, err := ms.acquireRanked(ctx, key, nil)
	if err != nil || id != seq[0] {
		t.Fatalf("acquireRanked = %q, %v; want ring owner %q", id, err, seq[0])
	}
	ms.release(id)
	id, _, err = ms.acquireRanked(ctx, key, map[string]bool{seq[0]: true})
	if err != nil || id != seq[1] {
		t.Fatalf("acquireRanked with owner excluded = %q, %v; want %q", id, err, seq[1])
	}
	ms.release(id)
}

// --- Helpers for board/steal tests ---

// parkedCampaign starts a cluster run whose only worker is at capacity,
// so every primary dispatch parks in acquireRanked and the whole plan
// is stealable. It returns the coordinator (speculation off), its HTTP
// handler server, the parked member's ID, and a channel carrying Run's
// outcome. Callers must eventually complete the campaign (by stealing)
// or release the member's slot.
type runOutcome struct {
	res *service.Result
	err error
}

func parkedCampaign(t *testing.T, spec service.Spec) (*Coordinator, *httptest.Server, string, chan runOutcome) {
	t.Helper()
	ms := NewMembership(MembershipConfig{PerWorkerInFlight: 1})
	m := mustJoin(t, ms, "http://127.0.0.1:1") // never dialed: its one slot is held below
	id, _, err := ms.acquire(context.Background(), nil)
	if err != nil || id != m.ID {
		t.Fatalf("failed to park the only worker: %q, %v", id, err)
	}
	c := NewCoordinator(Config{Members: ms, DisableSpeculation: true})
	srv := httptest.NewServer(c.Handler())
	t.Cleanup(srv.Close)
	out := make(chan runOutcome, 1)
	go func() {
		res, err := c.Run(context.Background(), spec)
		out <- runOutcome{res, err}
	}()
	// Wait until the campaign's board is registered and stealable.
	deadline := time.Now().Add(5 * time.Second)
	for {
		c.boardMu.Lock()
		n := len(c.boards)
		c.boardMu.Unlock()
		if n > 0 {
			return c, srv, m.ID, out
		}
		if time.Now().After(deadline) {
			t.Fatal("campaign board never registered")
		}
		time.Sleep(time.Millisecond)
	}
}

// stealAll drains a coordinator's stealable shards through the real
// HTTP steal/claims endpoints, executing each on the given worker.
func stealAll(t *testing.T, srv *httptest.Server, w *Worker, selfURL string) int {
	t.Helper()
	ctx := context.Background()
	stolen := 0
	for misses := 0; misses < 20; {
		req, token, err := StealOnce(ctx, srv.Client(), srv.URL, selfURL)
		if err != nil {
			t.Fatalf("StealOnce: %v", err)
		}
		if req == nil {
			misses++
			time.Sleep(5 * time.Millisecond)
			continue
		}
		resp, err := runShard(ctx, w, req)
		if err != nil {
			t.Fatalf("execute stolen shard: %v", err)
		}
		ack, err := DeliverClaim(ctx, srv.Client(), srv.URL, token, resp)
		if err != nil {
			t.Fatalf("DeliverClaim: %v", err)
		}
		if !ack.Accepted || !ack.Won {
			t.Fatalf("fresh steal not accepted as winner: %+v", ack)
		}
		stolen++
	}
	return stolen
}

// TestWorkStealingDrainsParkedCampaign parks every primary dispatch
// behind a saturated worker and lets a thief pull the whole plan
// through the HTTP steal/claims endpoints: the campaign completes
// byte-identical to a standalone run without a single primary dispatch
// finishing.
func TestWorkStealingDrainsParkedCampaign(t *testing.T) {
	spec := tinySpec(t, 8)
	want := standaloneJSON(t, spec)

	c, srv, parkedID, out := parkedCampaign(t, spec)
	thief := NewWorker(2)
	stolen := stealAll(t, srv, thief, "http://thief.example:1")
	if stolen == 0 {
		t.Fatal("nothing was stealable")
	}

	var got runOutcome
	select {
	case got = <-out:
	case <-time.After(30 * time.Second):
		t.Fatal("campaign did not finish after its shards were stolen")
	}
	c.ms.release(parkedID)
	if got.err != nil {
		t.Fatalf("stolen campaign failed: %v", got.err)
	}
	if gotJSON := resultJSON(t, got.res); gotJSON != want {
		t.Errorf("stolen-campaign result differs from standalone:\n got %s\nwant %s", gotJSON, want)
	}
	snap := c.Snapshot()
	if snap.StealsServed != int64(stolen) || snap.StealsWon != int64(stolen) {
		t.Errorf("steal counters: %+v, want served=won=%d", snap, stolen)
	}
	if snap.IntegrityFailures != 0 {
		t.Errorf("unexpected integrity failures: %+v", snap)
	}
}

// TestStealSurvivesTTLEvictionMidClaim is the membership/board seam: a
// thief worker that is TTL-evicted between claiming a shard and
// delivering its result must neither lose the shard nor duplicate it —
// claim tokens are board-scoped, not membership-scoped.
func TestStealSurvivesTTLEvictionMidClaim(t *testing.T) {
	spec := tinySpec(t, 4)
	want := standaloneJSON(t, spec)

	c, srv, parkedID, out := parkedCampaign(t, spec)
	ms := c.ms

	// The thief is a registered member (it joined like any worker).
	thiefMember := mustJoin(t, ms, "http://10.8.8.8:1")
	thief := NewWorker(2)

	// Claim every stealable shard, executing but NOT delivering yet.
	ctx := context.Background()
	type held struct {
		token string
		resp  *ShardResponse
	}
	var claims []held
	for {
		req, token, err := StealOnce(ctx, srv.Client(), srv.URL, "http://10.8.8.8:1")
		if err != nil {
			t.Fatalf("StealOnce: %v", err)
		}
		if req == nil {
			break
		}
		resp, err := runShard(ctx, thief, req)
		if err != nil {
			t.Fatalf("execute stolen shard: %v", err)
		}
		claims = append(claims, held{token, resp})
	}
	if len(claims) == 0 {
		t.Fatal("nothing was stealable")
	}

	// Evict the thief mid-claim: dead + past TTL. Steals hold no
	// membership in-flight slot, so the eviction is not deferred.
	ms.markDead(thiefMember.ID)
	ms.mu.Lock()
	ms.cfg.WorkerTTL = time.Minute
	ms.mu.Unlock()
	base := time.Now()
	ms.now = func() time.Time { return base.Add(time.Hour) }
	ms.evictExpired()
	found := false
	for _, m := range ms.List() {
		if m.ID == thiefMember.ID {
			found = true
		}
	}
	if found {
		t.Fatal("thief was not evicted; test proves nothing")
	}

	// Deliver after eviction: every claim must still be accepted and win.
	for _, cl := range claims {
		ack, err := DeliverClaim(ctx, srv.Client(), srv.URL, cl.token, cl.resp)
		if err != nil {
			t.Fatalf("DeliverClaim after eviction: %v", err)
		}
		if !ack.Accepted || !ack.Won {
			t.Fatalf("evicted thief's claim rejected: %+v", ack)
		}
	}
	var got runOutcome
	select {
	case got = <-out:
	case <-time.After(30 * time.Second):
		t.Fatal("campaign did not finish after evicted thief delivered")
	}
	c.ms.release(parkedID)
	if got.err != nil {
		t.Fatalf("campaign failed: %v", got.err)
	}
	if gotJSON := resultJSON(t, got.res); gotJSON != want {
		t.Errorf("result differs from standalone:\n got %s\nwant %s", gotJSON, want)
	}
	if snap := c.Snapshot(); snap.DuplicateResults != 0 || snap.IntegrityFailures != 0 {
		t.Errorf("eviction race produced duplicates or integrity failures: %+v", snap)
	}
}

// TestStealAbandonedByDeadThief checks a thief that claims a shard and
// dies never wedges the campaign: the primary still owns the range, and
// the thief's eventual late delivery is refused cleanly.
func TestStealAbandonedByDeadThief(t *testing.T) {
	spec := tinySpec(t, 2)
	want := standaloneJSON(t, spec)

	c, srv, parkedID, out := parkedCampaign(t, spec)
	ctx := context.Background()

	// The thief claims one shard and vanishes (never delivers).
	req, token, err := StealOnce(ctx, srv.Client(), srv.URL, "http://dead-thief.example:1")
	if err != nil || req == nil {
		t.Fatalf("StealOnce = %v, %v; want a shard", req, err)
	}
	// Free the parked worker's slot — except the member was never a real
	// server, so swap in a live one at the same load point: release the
	// slot and let the primary fail over to a real worker.
	realWorker, realSrv := newWorkerServer(t, 2)
	mustJoin(t, c.ms, realSrv.URL)
	c.ms.markDead(parkedID) // the parked member never dials anyway
	c.ms.release(parkedID)

	var got runOutcome
	select {
	case got = <-out:
	case <-time.After(30 * time.Second):
		t.Fatal("campaign wedged behind an abandoned steal claim")
	}
	if got.err != nil {
		t.Fatalf("campaign failed: %v", got.err)
	}
	if gotJSON := resultJSON(t, got.res); gotJSON != want {
		t.Errorf("result differs from standalone:\n got %s\nwant %s", gotJSON, want)
	}
	if realWorker.Snapshot().ShardsExecuted == 0 {
		t.Error("failover worker executed nothing; primary never recovered the range")
	}

	// The dead thief's delivery arrives after the campaign closed: it
	// must be refused (not merged, not crashed).
	thief := NewWorker(1)
	resp, err := runShard(ctx, thief, req)
	if err != nil {
		t.Fatalf("late execute: %v", err)
	}
	ack, err := DeliverClaim(ctx, srv.Client(), srv.URL, token, resp)
	if err != nil {
		t.Fatalf("late DeliverClaim: %v", err)
	}
	if ack.Accepted {
		t.Errorf("late claim for a finished campaign was accepted: %+v", ack)
	}
}

// runShard prepares and executes req on w, as the push and steal paths
// do.
func runShard(ctx context.Context, w *Worker, req *ShardRequest) (*ShardResponse, error) {
	job, err := prepareShard(req)
	if err != nil {
		return nil, err
	}
	return w.execute(ctx, job)
}

// --- Board arbitration ---

func testBoard(t *testing.T, spec service.Spec, ranges []shardRange) (*Coordinator, *board, context.Context) {
	t.Helper()
	c := NewCoordinator(Config{Members: NewMembership(MembershipConfig{PerWorkerInFlight: 1}), DisableSpeculation: true})
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	b := newBoard(c, spec.Fingerprint(), spec, ranges, cancel)
	for _, tk := range b.tasks {
		tk.ctx, tk.cancel = context.WithCancel(ctx)
	}
	return c, b, ctx
}

// TestBoardDuplicateResultDiscarded: when two claims race and return
// byte-identical results, the first wins and the second is counted as a
// discarded duplicate — never an error.
func TestBoardDuplicateResultDiscarded(t *testing.T) {
	spec := tinySpec(t, 2)
	c, b, _ := testBoard(t, spec, []shardRange{{0, 2}})
	task := b.tasks[0]

	w := NewWorker(1)
	resp, err := runShard(context.Background(), w, &ShardRequest{Spec: spec, First: 0, Count: 2})
	if err != nil {
		t.Fatalf("execute: %v", err)
	}
	stealTok := b.register(task, claimSteal, "thief")
	primaryTok := b.register(task, claimPrimary, "worker-001")

	known, won, err := b.complete(task, stealTok, resp)
	if !known || !won || err != nil {
		t.Fatalf("first complete = (%v,%v,%v), want winner", known, won, err)
	}
	known, won, err = b.complete(task, primaryTok, resp)
	if !known || won || err != nil {
		t.Fatalf("duplicate complete = (%v,%v,%v), want known loser", known, won, err)
	}
	if c.duplicateResults.Load() != 1 || c.stealsWon.Load() != 1 {
		t.Errorf("counters: dup=%d stealsWon=%d", c.duplicateResults.Load(), c.stealsWon.Load())
	}
	// Replaying a consumed token is a no-op.
	if known, _, _ := b.complete(task, primaryTok, resp); known {
		t.Error("consumed token accepted twice")
	}
}

// TestBoardIntegrityMismatchAborts: divergent results for the same
// range are a hard campaign failure, not a silent tiebreak.
func TestBoardIntegrityMismatchAborts(t *testing.T) {
	spec := tinySpec(t, 2)
	c, b, ctx := testBoard(t, spec, []shardRange{{0, 2}})
	task := b.tasks[0]

	w := NewWorker(1)
	good, err := runShard(context.Background(), w, &ShardRequest{Spec: spec, First: 0, Count: 2})
	if err != nil {
		t.Fatalf("execute: %v", err)
	}
	// A corrupted rival: same range, tampered payload.
	var bad ShardResponse
	raw, _ := json.Marshal(good)
	if err := json.Unmarshal(raw, &bad); err != nil {
		t.Fatalf("round-trip: %v", err)
	}
	bad.Retried++

	tok1 := b.register(task, claimPrimary, "worker-001")
	tok2 := b.register(task, claimSpeculative, "worker-002")
	if _, won, err := b.complete(task, tok1, good); !won || err != nil {
		t.Fatalf("winner rejected: %v", err)
	}
	_, won, err := b.complete(task, tok2, &bad)
	if won || err == nil {
		t.Fatal("divergent result did not fail the campaign")
	}
	if b.failed() == nil {
		t.Error("board does not remember the integrity failure")
	}
	if c.integrityFailures.Load() != 1 {
		t.Errorf("integrityFailures = %d, want 1", c.integrityFailures.Load())
	}
	select {
	case <-ctx.Done():
	case <-time.After(time.Second):
		t.Error("integrity failure did not abort the campaign context")
	}
}

// --- Speculative re-execution ---

// TestSpeculationRescuesStraggler hangs a worker on the first shard it
// receives; the speculation monitor re-dispatches that range and the
// campaign finishes byte-identical to standalone, with the win counted.
func TestSpeculationRescuesStraggler(t *testing.T) {
	spec := tinySpec(t, 8)
	want := standaloneJSON(t, spec)

	ms := NewMembership(MembershipConfig{PerWorkerInFlight: 2})
	// Worker A: hangs its first shard until the coordinator cancels it;
	// serves normally afterwards.
	realA := NewWorker(2)
	var hung atomic.Int64
	muxA := http.NewServeMux()
	var first atomic.Bool
	muxA.HandleFunc(ShardPath, func(rw http.ResponseWriter, r *http.Request) {
		if first.CompareAndSwap(false, true) {
			// Drain the body: the server only watches for client
			// disconnect (cancelling r.Context) once the body is
			// consumed, and the coordinator's cancel is our release.
			io.Copy(io.Discard, r.Body)
			hung.Add(1)
			<-r.Context().Done()
			panic(http.ErrAbortHandler)
		}
		realA.ShardHandler().ServeHTTP(rw, r)
	})
	muxA.HandleFunc(HealthPath, func(rw http.ResponseWriter, r *http.Request) { rw.WriteHeader(http.StatusOK) })
	srvA := httptest.NewServer(muxA)
	t.Cleanup(srvA.Close)
	mustJoin(t, ms, srvA.URL)

	_, srvB := newWorkerServer(t, 2)
	mustJoin(t, ms, srvB.URL)

	c := NewCoordinator(Config{
		Members:             ms,
		SpeculationFactor:   1.0,
		SpeculationMinWait:  50 * time.Millisecond,
		SpeculationInterval: 10 * time.Millisecond,
	})
	res, err := c.Run(context.Background(), spec)
	if err != nil {
		t.Fatalf("run with straggler: %v", err)
	}
	if hung.Load() == 0 {
		t.Skip("straggling worker never received a shard; placement sent everything elsewhere")
	}
	if got := resultJSON(t, res); got != want {
		t.Errorf("speculated result differs from standalone:\n got %s\nwant %s", got, want)
	}
	snap := c.Snapshot()
	if snap.SpeculationsLaunched == 0 {
		t.Errorf("no speculation launched despite a hung shard: %+v", snap)
	}
	if snap.IntegrityFailures != 0 {
		t.Errorf("speculation caused integrity failures: %+v", snap)
	}
}

// TestSpeculativeDuplicateStorm forces every shard to be speculated by
// a hair-trigger detector against healthy workers: the campaign must
// stay byte-identical with every duplicate discarded, never erroring.
func TestSpeculativeDuplicateStorm(t *testing.T) {
	spec := tinySpec(t, 8)
	want := standaloneJSON(t, spec)

	ms := NewMembership(MembershipConfig{PerWorkerInFlight: 4})
	for i := 0; i < 3; i++ {
		_, srv := newWorkerServer(t, 4)
		mustJoin(t, ms, srv.URL)
	}
	c := NewCoordinator(Config{
		Members:             ms,
		SpeculationFactor:   0.0001,
		SpeculationMinWait:  time.Nanosecond,
		SpeculationInterval: time.Millisecond,
	})
	res, err := c.Run(context.Background(), spec)
	if err != nil {
		t.Fatalf("run under speculation storm: %v", err)
	}
	if got := resultJSON(t, res); got != want {
		t.Errorf("storm result differs from standalone:\n got %s\nwant %s", got, want)
	}
	snap := c.Snapshot()
	if snap.IntegrityFailures != 0 {
		t.Errorf("duplicate storm produced integrity failures: %+v", snap)
	}
	// Primary claims losing to a speculative winner also land in
	// DuplicateResults, so the duplicate count can exceed — but never
	// trail — the speculative losses.
	if snap.DuplicateResults < snap.SpeculativeLosses {
		t.Errorf("speculative losses not all counted as duplicates: %+v", snap)
	}
}

// claimCounters is the slice of the snapshot the claim routine moves.
type claimCounters struct {
	launched, wins, dispatched, completed, local int64
}

func claimCountersOf(s CoordinatorSnapshot) claimCounters {
	return claimCounters{s.SpeculationsLaunched, s.SpeculativeWins, s.ShardsDispatched, s.ShardsCompleted, s.ShardsLocal}
}

// TestSpeculativeWinCounters pins the counters of one speculative win:
// a lone worker hangs the first of the campaign's two shards and serves
// the other, the monitor re-dispatches the straggler to the same worker,
// and that claim wins. Both primaries and the speculation count as
// dispatches, but only the primary that finished counts as completed.
func TestSpeculativeWinCounters(t *testing.T) {
	spec := tinySpec(t, 8)
	want := standaloneJSON(t, spec)

	ms := NewMembership(MembershipConfig{PerWorkerInFlight: 2})
	real := NewWorker(2)
	var first atomic.Bool
	mux := http.NewServeMux()
	mux.HandleFunc(ShardPath, func(rw http.ResponseWriter, r *http.Request) {
		if first.CompareAndSwap(false, true) {
			io.Copy(io.Discard, r.Body)
			<-r.Context().Done()
			panic(http.ErrAbortHandler)
		}
		real.ShardHandler().ServeHTTP(rw, r)
	})
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	mustJoin(t, ms, srv.URL)

	c := NewCoordinator(Config{
		Members:             ms,
		SpeculationFactor:   1.0,
		SpeculationMinWait:  50 * time.Millisecond,
		SpeculationInterval: 10 * time.Millisecond,
	})
	res, err := c.Run(context.Background(), spec)
	if err != nil {
		t.Fatalf("run with straggler: %v", err)
	}
	if got := resultJSON(t, res); got != want {
		t.Errorf("speculated result differs from standalone:\n got %s\nwant %s", got, want)
	}
	if got, want := claimCountersOf(c.Snapshot()), (claimCounters{launched: 1, wins: 1, dispatched: 3, completed: 1}); got != want {
		t.Errorf("counters = %+v, want %+v", got, want)
	}
}

// TestLocalFallbackCounters pins the counters of one local fallback: the
// only worker dies after joining, the one-shard campaign's primary
// dispatch fails over, and the shard runs on the coordinator.
func TestLocalFallbackCounters(t *testing.T) {
	spec := tinySpec(t, 1)
	want := standaloneJSON(t, spec)

	ms := NewMembership(MembershipConfig{PerWorkerInFlight: 2})
	srv := httptest.NewServer(http.NotFoundHandler())
	mustJoin(t, ms, srv.URL)
	srv.Close()

	c := NewCoordinator(Config{Members: ms})
	res, err := c.Run(context.Background(), spec)
	if err != nil {
		t.Fatalf("run after worker death: %v", err)
	}
	if got := resultJSON(t, res); got != want {
		t.Errorf("result differs from standalone:\n got %s\nwant %s", got, want)
	}
	snap := c.Snapshot()
	if got, want := claimCountersOf(snap), (claimCounters{dispatched: 1, local: 1}); got != want {
		t.Errorf("counters = %+v, want %+v", got, want)
	}
	if snap.ShardFailovers != 1 {
		t.Errorf("shard failovers = %d, want 1", snap.ShardFailovers)
	}
}

// --- Cache gossip ---

// TestGossipAnswersWholeJob caches a result on a standalone node, lets
// the coordinator gossip its index, and checks the next campaign for
// the same fingerprint is answered from that cache byte-identically,
// with zero shards dispatched.
func TestGossipAnswersWholeJob(t *testing.T) {
	spec := tinySpec(t, 4)
	want := standaloneJSON(t, spec)

	// A node whose cache already holds the job.
	svc := service.New(service.Config{})
	t.Cleanup(func() { _ = svc.Shutdown(context.Background()) })
	sub, err := svc.Submit(spec)
	if err != nil {
		t.Fatalf("seed submit: %v", err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		v, err := svc.Get(sub.ID)
		if err != nil {
			t.Fatalf("seed get: %v", err)
		}
		if v.State == service.StateDone {
			break
		}
		if v.State == service.StateFailed || time.Now().After(deadline) {
			t.Fatalf("seed job did not finish: %+v", v)
		}
		time.Sleep(5 * time.Millisecond)
	}
	mux := http.NewServeMux()
	mux.Handle("/", service.NewHandler(svc))
	mux.HandleFunc(HealthPath, func(rw http.ResponseWriter, r *http.Request) { rw.WriteHeader(http.StatusOK) })
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)

	ms := NewMembership(MembershipConfig{PerWorkerInFlight: 1})
	mustJoin(t, ms, srv.URL)
	c := NewCoordinator(Config{Members: ms, Client: srv.Client()})
	c.GossipOnce(context.Background(), time.Second)
	if snap := c.Snapshot(); snap.GossipEntries == 0 || snap.GossipSweeps != 1 {
		t.Fatalf("gossip sweep learned nothing: %+v", snap)
	}

	res, err := c.Run(context.Background(), spec)
	if err != nil {
		t.Fatalf("gossip-answered run: %v", err)
	}
	if got := resultJSON(t, res); got != want {
		t.Errorf("gossip answer differs from standalone:\n got %s\nwant %s", got, want)
	}
	snap := c.Snapshot()
	if snap.GossipAnswers != 1 {
		t.Errorf("job not answered from gossip: %+v", snap)
	}
	if snap.ShardsDispatched != 0 || snap.JobsSharded != 0 {
		t.Errorf("gossip answer still dispatched shards: %+v", snap)
	}
}

// TestGossipRejectsMismatchedFingerprint: a holder serving wrong bytes
// for a fingerprint must be ignored, not trusted.
func TestGossipRejectsMismatchedFingerprint(t *testing.T) {
	spec := tinySpec(t, 2)
	res := &service.Result{Fingerprint: "not-the-requested-one", Spec: spec}
	mux := http.NewServeMux()
	mux.HandleFunc("GET "+service.CacheResultsPrefix+"{fp}", func(rw http.ResponseWriter, r *http.Request) {
		rw.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(rw).Encode(res)
	})
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)

	if _, err := fetchCachedResult(context.Background(), srv.Client(), srv.URL, spec.Fingerprint()); err == nil {
		t.Fatal("mislabeled cached result was accepted")
	}
}

// --- Deadline parity (satellite a) ---

// TestDispatchCarriesDeadlineHeader: every shard the coordinator pushes
// to a worker carries the job deadline in DeadlineHeader, to the
// nanosecond.
func TestDispatchCarriesDeadlineHeader(t *testing.T) {
	spec := tinySpec(t, 4)
	w := NewWorker(2)
	var mu sync.Mutex
	var got []string
	mux := http.NewServeMux()
	mux.HandleFunc(ShardPath, func(rw http.ResponseWriter, r *http.Request) {
		mu.Lock()
		got = append(got, r.Header.Get(DeadlineHeader))
		mu.Unlock()
		w.ShardHandler().ServeHTTP(rw, r)
	})
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	ms := NewMembership(MembershipConfig{PerWorkerInFlight: 2})
	mustJoin(t, ms, srv.URL)
	c := NewCoordinator(Config{Members: ms, DisableSpeculation: true})

	dl := time.Now().Add(time.Minute).Round(0)
	ctx, cancel := context.WithDeadline(context.Background(), dl)
	defer cancel()
	if _, err := c.Run(ctx, spec); err != nil {
		t.Fatalf("cluster run: %v", err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(got) == 0 {
		t.Fatal("no shard reached the worker")
	}
	for i, hdr := range got {
		at, err := time.Parse(time.RFC3339Nano, hdr)
		if err != nil || !at.Equal(dl) {
			t.Errorf("shard %d: %s = %q (%v), want %s", i, DeadlineHeader, hdr, err, dl.Format(time.RFC3339Nano))
		}
	}
}

// TestLocalFallbackHonorsSpecTimeout: with no workers and no caller
// deadline, a Spec.TimeoutSec budget must still bound the local run —
// exactly as DeadlineHeader bounds a remote one.
func TestLocalFallbackHonorsSpecTimeout(t *testing.T) {
	spec := tinySpec(t, 64)
	spec.TimeoutSec = 0.002 // far less than 64 replicas need

	c := NewCoordinator(Config{Members: NewMembership(MembershipConfig{})})
	start := time.Now()
	_, err := c.Run(context.Background(), spec)
	if err == nil {
		t.Fatal("local fallback ignored the spec timeout")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("error = %v, want a deadline error", err)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Errorf("timeout enforced only after %s", elapsed)
	}
}

// --- Observability (satellite b) ---

func TestCoordinatorMetricsExposeElasticCounters(t *testing.T) {
	c := NewCoordinator(Config{Members: NewMembership(MembershipConfig{})})
	var buf strings.Builder
	if err := c.WritePrometheus(&buf); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	out := buf.String()
	for _, name := range []string{
		"scrubd_cluster_ring_version",
		"scrubd_cluster_steals_served_total",
		"scrubd_cluster_steals_won_total",
		"scrubd_cluster_steals_lost_total",
		"scrubd_cluster_speculations_launched_total",
		"scrubd_cluster_speculative_wins_total",
		"scrubd_cluster_speculative_losses_total",
		"scrubd_cluster_duplicate_results_total",
		"scrubd_cluster_integrity_failures_total",
		"scrubd_cluster_gossip_answers_total",
		"scrubd_cluster_gossip_age_seconds",
	} {
		if !strings.Contains(out, name) {
			t.Errorf("metrics missing %s", name)
		}
	}
}

func TestHealthzCarriesClusterState(t *testing.T) {
	c := NewCoordinator(Config{Members: NewMembership(MembershipConfig{})})
	svc := service.New(service.Config{})
	t.Cleanup(func() { _ = svc.Shutdown(context.Background()) })
	h := service.NewHandlerWith(svc, service.HandlerConfig{
		Role:        "coordinator",
		LiveWorkers: c.Members().AliveCount,
		ClusterInfo: func() any { return c.Snapshot() },
	})
	srv := httptest.NewServer(h)
	t.Cleanup(srv.Close)

	resp, err := srv.Client().Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatalf("GET /healthz: %v", err)
	}
	defer resp.Body.Close()
	var body struct {
		Role    string          `json:"role"`
		Cluster json.RawMessage `json:"cluster"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatalf("decode healthz: %v", err)
	}
	if body.Role != "coordinator" || len(body.Cluster) == 0 {
		t.Fatalf("healthz lacks cluster state: %+v", body)
	}
	for _, key := range []string{"ring_version", "steals_won", "speculative_wins", "gossip_age_seconds"} {
		if !strings.Contains(string(body.Cluster), key) {
			t.Errorf("healthz cluster state missing %q: %s", key, body.Cluster)
		}
	}
}

// TestRingEndpoint exercises GET /v1/cluster/ring.
func TestRingEndpoint(t *testing.T) {
	ms := NewMembership(MembershipConfig{})
	mustJoin(t, ms, "http://10.0.0.1:1")
	mustJoin(t, ms, "http://10.0.0.2:1")
	c := NewCoordinator(Config{Members: ms})
	srv := httptest.NewServer(c.Handler())
	t.Cleanup(srv.Close)

	resp, err := srv.Client().Get(srv.URL + RingPath)
	if err != nil {
		t.Fatalf("GET ring: %v", err)
	}
	defer resp.Body.Close()
	var body struct {
		Version uint64   `json:"version"`
		Members []string `json:"members"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatalf("decode ring: %v", err)
	}
	if body.Version != ms.RingVersion() || len(body.Members) != 2 {
		t.Errorf("ring endpoint = %+v, want version %d with 2 members", body, ms.RingVersion())
	}
}
