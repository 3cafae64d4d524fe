package core

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/engine"
)

// TestShardedMergeMatchesSingleNode pins the cluster determinism
// contract at the core layer: running a campaign as disjoint shards and
// merging them yields a Replicated deeply equal — summaries, results,
// bookkeeping — to the whole-campaign run.
func TestShardedMergeMatchesSingleNode(t *testing.T) {
	sys := smallSystem()
	sys.Horizon = 20000
	m, err := SuiteMechanism(sys, "basic")
	if err != nil {
		t.Fatal(err)
	}
	w := smallWorkload()
	const replicas = 8

	whole, err := RunReplicatedContext(context.Background(), sys, m, w, replicas)
	if err != nil {
		t.Fatal(err)
	}

	// An uneven partition, dispatched out of order to prove the merge is
	// insensitive to shard arrival order.
	ranges := [][2]int{{3, 3}, {0, 3}, {6, 2}}
	shards := make([]*Shard, 0, len(ranges))
	for _, r := range ranges {
		sh, err := RunShardContext(context.Background(), sys, m, w, r[0], r[1])
		if err != nil {
			t.Fatalf("shard [%d,+%d): %v", r[0], r[1], err)
		}
		shards = append(shards, sh)
	}
	merged, err := MergeReplicated(m.Name, w.Name, replicas, shards)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(whole, merged) {
		t.Errorf("sharded merge differs from single-node run:\nwhole : %+v\nmerged: %+v", whole, merged)
	}
}

// TestRunShardContextUsesAbsoluteSeeds proves a shard's replicas are
// seeded by absolute campaign index, not shard-local offset.
func TestRunShardContextUsesAbsoluteSeeds(t *testing.T) {
	sys := smallSystem()
	var mu sync.Mutex
	var seeds []uint64
	withReplicaRunner(t, func(ctx context.Context, cfg engine.Spec) (*engine.Result, error) {
		mu.Lock()
		seeds = append(seeds, cfg.Seed)
		mu.Unlock()
		return fakeResult(cfg.Seed), nil
	})
	m, _ := SuiteMechanism(sys, "basic")
	sh, err := RunShardContext(context.Background(), sys, m, smallWorkload(), 5, 2)
	if err != nil {
		t.Fatal(err)
	}
	if sh.First != 5 || sh.Count != 2 || len(sh.Results) != 2 {
		t.Fatalf("shard shape wrong: %+v", sh)
	}
	want := map[uint64]bool{replicaSeed(sys.Seed, 5): true, replicaSeed(sys.Seed, 6): true}
	mu.Lock()
	defer mu.Unlock()
	if len(seeds) != 2 || !want[seeds[0]] || !want[seeds[1]] || seeds[0] == seeds[1] {
		t.Errorf("shard ran seeds %v, want replica indices 5 and 6 of base %d", seeds, sys.Seed)
	}
}

func TestRunShardContextRejectsBadRange(t *testing.T) {
	sys := smallSystem()
	m, _ := SuiteMechanism(sys, "basic")
	if _, err := RunShardContext(context.Background(), sys, m, smallWorkload(), -1, 2); err == nil {
		t.Error("negative first accepted")
	}
	if _, err := RunShardContext(context.Background(), sys, m, smallWorkload(), 0, 0); err == nil {
		t.Error("zero count accepted")
	}
}

func mergeShard(first int, results ...*engine.Result) *Shard {
	return &Shard{First: first, Count: len(results), Results: results}
}

func TestMergeReplicatedValidation(t *testing.T) {
	r := func() *engine.Result { return &engine.Result{UEs: 1, ScrubWriteBacks: 2} }
	cases := map[string][]*Shard{
		"nil shard":      {nil},
		"gap":            {mergeShard(0, r()), mergeShard(2, r())},
		"overlap":        {mergeShard(0, r(), r()), mergeShard(1, r(), r())},
		"overrun":        {mergeShard(0, r(), r()), mergeShard(2, r(), r())},
		"negative first": {mergeShard(-1, r(), r(), r(), r())},
	}
	for name, shards := range cases {
		if _, err := MergeReplicated("m", "w", 3, shards); err == nil {
			t.Errorf("%s: merge accepted", name)
		}
	}
	if _, err := MergeReplicated("m", "w", 0, nil); err == nil {
		t.Error("zero-replica merge accepted")
	}
	bad := mergeShard(0, r(), r(), r())
	bad.Failures = []ReplicaFailure{{Index: 7, Err: errors.New("x")}}
	if _, err := MergeReplicated("m", "w", 3, []*Shard{bad}); err == nil {
		t.Error("out-of-range failure index accepted")
	}
}

// TestMergeReplicatedGlobalBudget: shards that individually respected
// their local budgets can still jointly blow the campaign budget when
// merged with extra failures recorded directly.
func TestMergeReplicatedGlobalBudget(t *testing.T) {
	r := func() *engine.Result { return &engine.Result{UEs: 1, ScrubWriteBacks: 2} }
	// 4 replicas → budget 0; one failed replica must abort the merge.
	sh := mergeShard(0, r(), nil, r(), r())
	sh.Failures = []ReplicaFailure{{Index: 1, Err: errors.New("synthetic loss")}}
	_, err := MergeReplicated("m", "w", 4, []*Shard{sh})
	if err == nil || !strings.Contains(err.Error(), "budget") {
		t.Fatalf("over-budget merge: err = %v, want budget error", err)
	}

	// 10 replicas → budget 2; two failures degrade gracefully.
	sh2 := mergeShard(0, r(), nil, nil, r(), r(), r(), r(), r(), r(), r())
	sh2.Failures = []ReplicaFailure{
		{Index: 2, Err: errors.New("b")},
		{Index: 1, Err: errors.New("a")},
	}
	rep, err := MergeReplicated("m", "w", 10, []*Shard{sh2})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Partial() || rep.Completed != 8 || rep.Failed() != 2 {
		t.Errorf("partial=%t completed=%d failed=%d, want true/8/2", rep.Partial(), rep.Completed, rep.Failed())
	}
	if rep.Failures[0].Index != 1 || rep.Failures[1].Index != 2 {
		t.Errorf("failures not index-sorted: %+v", rep.Failures)
	}
}
