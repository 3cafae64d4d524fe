package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/service"
	"repro/internal/trace"
)

// claimKind labels who is executing a shard claim; it routes the
// win/loss counters when claims race.
type claimKind int

const (
	// claimPrimary is the coordinator's own ring-placed dispatch.
	claimPrimary claimKind = iota
	// claimLocal is the coordinator executing the shard itself.
	claimLocal
	// claimSteal is an idle worker that pulled the shard via StealPath.
	claimSteal
	// claimSpeculative is a re-dispatch of a straggling shard.
	claimSpeculative
)

func (k claimKind) String() string {
	switch k {
	case claimPrimary:
		return "primary"
	case claimLocal:
		return "local"
	case claimSteal:
		return "steal"
	case claimSpeculative:
		return "speculative"
	}
	return "unknown"
}

// claim is one in-flight execution attempt on a shard task. Tokens are
// minted per claim and are the idempotency key of result delivery: a
// result is only accepted under a token the board issued, the first
// accepted result wins, and every later result is checked byte-for-byte
// against the winner.
type claim struct {
	token  string
	kind   claimKind
	worker string // member ID, steal worker URL, or "coordinator"
	start  time.Time
}

// shardTask is one replica range of a campaign on the board.
type shardTask struct {
	idx int
	rg  shardRange
	key string // consistent-hash placement key

	claims     map[string]*claim
	stealable  bool // no dispatch currently executing the range
	speculated bool // a speculative claim was already launched
	done       bool
	winner     *ShardResponse
	winnerJSON []byte
	started    time.Time
	finished   time.Time
	// ctx/cancel bound the task's outstanding claims; a winner cancels
	// the rest.
	ctx    context.Context
	cancel context.CancelFunc
}

// board tracks one campaign's shard tasks and arbitrates racing claims.
// Work stealing and speculative re-execution are both just additional
// claims on a task; determinism (absolute-seed sharding) is what makes
// first-result-wins exact, and a byte mismatch between two results for
// the same range is therefore a hard integrity error, never a tiebreak.
type board struct {
	mu    sync.Mutex
	c     *Coordinator
	fp    string
	spec  service.Spec
	tasks []*shardTask
	// sys/mech/wl are the built spec, for shards run on the coordinator.
	sys  core.System
	mech core.Mechanism
	wl   trace.Workload
	// deadline, when nonzero, is the campaign deadline propagated to
	// stolen shards.
	deadline time.Time
	// abort cancels the whole campaign on an integrity failure.
	abort context.CancelFunc
	err   error
	// onWin journals a winning shard payload (nil when not journaled);
	// called without mu held.
	onWin func(rg shardRange, payload []byte)
}

func newBoard(c *Coordinator, fp string, spec service.Spec, plan []shardRange, abort context.CancelFunc) *board {
	b := &board{c: c, fp: fp, spec: spec, abort: abort}
	now := time.Now()
	for i, rg := range plan {
		b.tasks = append(b.tasks, &shardTask{
			idx:       i,
			rg:        rg,
			key:       shardKey(fp, rg.first, rg.count),
			claims:    make(map[string]*claim),
			stealable: true,
			started:   now,
		})
	}
	return b
}

// revive marks a task complete from a journaled checkpoint, bypassing
// the claim race (and the onWin journal hook — the checkpoint is already
// durable). Called before the board accepts steals.
func (b *board) revive(t *shardTask, resp *ShardResponse, payload []byte) {
	b.mu.Lock()
	defer b.mu.Unlock()
	t.done = true
	t.stealable = false
	t.winner = resp
	t.winnerJSON = payload
	t.finished = time.Now()
}

// register mints a claim token for an execution attempt on the task.
// Primary, local, and speculative claims mark the range as actively
// dispatched (not stealable); a steal claim leaves the primary racing.
func (b *board) register(t *shardTask, kind claimKind, worker string) string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.registerLocked(t, kind, worker)
}

// registerLocked is register with b.mu held.
func (b *board) registerLocked(t *shardTask, kind claimKind, worker string) string {
	cl := &claim{
		token:  fmt.Sprintf("claim-%s-%d", b.fp[:8], b.c.claimSeq.Add(1)),
		kind:   kind,
		worker: worker,
		start:  time.Now(),
	}
	t.claims[cl.token] = cl
	if kind != claimSteal {
		t.stealable = false
	}
	return cl.token
}

// releaseClaim withdraws a claim whose execution attempt failed. A
// failed primary attempt re-opens the range for stealing while the
// primary backs off and fails over.
func (b *board) releaseClaim(t *shardTask, token string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	delete(t.claims, token)
	if !t.done && !b.activeDispatchLocked(t) {
		t.stealable = true
	}
}

// activeDispatchLocked reports whether a non-steal claim is executing.
func (b *board) activeDispatchLocked(t *shardTask) bool {
	for _, cl := range t.claims {
		if cl.kind != claimSteal {
			return true
		}
	}
	return false
}

// taskDone reports whether the range already has a winner.
func (b *board) taskDone(t *shardTask) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return t.done
}

// failed returns the campaign's integrity error, if any.
func (b *board) failed() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.err
}

// complete delivers a claim's result. The first result for a task wins:
// it is recorded, journaled, and the task's other claims are cancelled.
// Any later result must be byte-identical to the winner — a duplicate
// is discarded (that is what makes steals and speculation safe), and a
// mismatch fails the whole campaign as a hard integrity error, because
// determinism guarantees two honest executions of the same seed range
// can never disagree.
//
// complete is idempotent per token and safe for any caller thread (the
// primary dispatch loop, the speculation monitor, the claims HTTP
// handler). It reports whether the token was known and whether this
// result became the winner.
func (b *board) complete(t *shardTask, token string, resp *ShardResponse) (known, won bool, err error) {
	payload, merr := json.Marshal(resp)
	if merr != nil {
		return true, false, fmt.Errorf("cluster: encode shard result: %w", merr)
	}

	b.mu.Lock()
	cl, ok := t.claims[token]
	if !ok {
		b.mu.Unlock()
		return false, false, nil
	}
	delete(t.claims, token)
	if !t.done {
		t.done = true
		t.stealable = false
		t.winner = resp
		t.winnerJSON = payload
		t.finished = time.Now()
		cancel := t.cancel
		switch cl.kind {
		case claimSteal:
			b.c.stealsWon.Add(1)
		case claimSpeculative:
			b.c.speculativeWins.Add(1)
		}
		onWin := b.onWin
		b.mu.Unlock()
		if cancel != nil {
			cancel() // abort the losing claims' work
		}
		if onWin != nil {
			onWin(t.rg, payload)
		}
		return true, true, nil
	}
	// A loser: the range already has a winner. Byte-compare — identical
	// bytes are the expected duplicate of a racing claim; different
	// bytes mean a worker returned a wrong result for a deterministic
	// computation, and the campaign must not merge it away silently.
	if bytes.Equal(payload, t.winnerJSON) {
		switch cl.kind {
		case claimSteal:
			b.c.stealsLost.Add(1)
		case claimSpeculative:
			b.c.speculativeLosses.Add(1)
		}
		b.c.duplicateResults.Add(1)
		b.mu.Unlock()
		return true, false, nil
	}
	b.c.integrityFailures.Add(1)
	b.err = fmt.Errorf("cluster: integrity failure: shard [%d,+%d) of %s got two different results (claim %s from %s)",
		t.rg.first, t.rg.count, b.fp[:8], cl.kind, cl.worker)
	err = b.err
	abort := b.abort
	b.mu.Unlock()
	if abort != nil {
		abort() // a poisoned campaign must stop, not merge
	}
	return true, false, err
}

// stealTask hands out one pending shard to an idle worker: a task with
// no dispatch actively executing it (its primary is parked waiting for
// an in-flight slot or backing off between failovers). At most one
// steal claim is outstanding per task so a storm of idle workers does
// not pile onto the same range. Returns ok=false when nothing is
// stealable.
func (b *board) stealTask(workerURL string) (req *ShardRequest, token string, t *shardTask, ok bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.err != nil {
		return nil, "", nil, false
	}
	for _, cand := range b.tasks {
		if cand.done || !cand.stealable || len(cand.claims) > 0 {
			continue
		}
		token := b.registerLocked(cand, claimSteal, workerURL)
		return &ShardRequest{Spec: b.spec, First: cand.rg.first, Count: cand.rg.count}, token, cand, true
	}
	return nil, "", nil, false
}

// stragglers returns the tasks eligible for speculative re-execution at
// now: the campaign has completed enough shards to know its latency
// shape, and the task has been running longer than factor × the
// completed-duration quantile (floored at minWait). Each returned task
// is marked speculated so it is only ever re-dispatched once.
func (b *board) stragglers(now time.Time, cfg speculationConfig) []*shardTask {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.err != nil {
		return nil
	}
	durations := make([]time.Duration, 0, len(b.tasks))
	pending := 0
	for _, t := range b.tasks {
		if t.done {
			durations = append(durations, t.finished.Sub(t.started))
		} else {
			pending++
		}
	}
	if len(durations) == 0 || pending == 0 {
		return nil // no latency shape yet, or nothing left to chase
	}
	threshold := durationQuantile(durations, cfg.Quantile)
	threshold = time.Duration(float64(threshold) * cfg.Factor)
	if threshold < cfg.MinWait {
		threshold = cfg.MinWait
	}
	var out []*shardTask
	for _, t := range b.tasks {
		if t.done || t.speculated {
			continue
		}
		if now.Sub(t.started) >= threshold {
			t.speculated = true
			out = append(out, t)
		}
	}
	return out
}

// durationQuantile returns the q-quantile (0..1) of the samples by
// nearest-rank on an insertion-sorted copy; samples are tiny (≤ shard
// count) so O(n²) is irrelevant.
func durationQuantile(samples []time.Duration, q float64) time.Duration {
	sorted := append([]time.Duration(nil), samples...)
	for i := 1; i < len(sorted); i++ {
		for j := i; j > 0 && sorted[j] < sorted[j-1]; j-- {
			sorted[j], sorted[j-1] = sorted[j-1], sorted[j]
		}
	}
	idx := int(q * float64(len(sorted)-1))
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}
