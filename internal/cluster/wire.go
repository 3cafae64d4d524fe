// Package cluster distributes replicated scrub-simulation jobs across
// scrubd nodes. A coordinator splits one fingerprinted job spec into
// per-replica seed-ranged shards, dispatches them over HTTP/JSON to
// registered worker nodes (bounded in-flight per worker), retries failed
// shards on different workers, falls back to local execution when no
// workers are live, and deterministically merges shard results — so a
// sharded run is statistically identical (same per-replica seeds, same
// merged aggregates, byte-identical result JSON) to a single-node run.
//
// The protocol is three endpoints:
//
//	POST /v1/cluster/join    worker → coordinator: announce {url}
//	GET  /v1/cluster/workers coordinator: membership listing
//	POST /v1/cluster/shards  coordinator → worker: execute a replica range
//
// plus the workers' ordinary /healthz, which the coordinator heartbeats.
package cluster

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/service"
)

// Protocol paths. Workers mount ShardPath; coordinators mount JoinPath,
// WorkersPath, StealPath, ClaimsPath, and RingPath; the heartbeat
// probes HealthPath.
const (
	ShardPath   = "/v1/cluster/shards"
	JoinPath    = "/v1/cluster/join"
	WorkersPath = "/v1/cluster/workers"
	StealPath   = "/v1/cluster/steal"
	ClaimsPath  = "/v1/cluster/claims"
	RingPath    = "/v1/cluster/ring"
	HealthPath  = "/healthz"
)

// ShardRequest asks a worker to execute replicas [First, First+Count) of
// the campaign described by the (normalised) Spec. Replica seeds derive
// from absolute indices, so the worker needs no other coordination
// state.
type ShardRequest struct {
	Spec  service.Spec `json:"spec"`
	First int          `json:"first"`
	Count int          `json:"count"`

	// deadline is the propagated campaign deadline (zero = none). It
	// travels out of band — the header on pushed shards, the
	// StealResponse field on pulled ones — and is applied by
	// Worker.execute.
	deadline time.Time
}

// Validate checks the range against the spec's replica count.
func (r *ShardRequest) Validate() error {
	if r.First < 0 {
		return fmt.Errorf("cluster: shard first %d must be >= 0", r.First)
	}
	if r.Count < 1 {
		return fmt.Errorf("cluster: shard count %d must be >= 1", r.Count)
	}
	if r.Count > r.Spec.Replicas-r.First {
		return fmt.Errorf("cluster: shard [%d,+%d) exceeds %d replicas", r.First, r.Count, r.Spec.Replicas)
	}
	return nil
}

// ShardFailure is the wire form of one failed replica.
type ShardFailure struct {
	Index int    `json:"index"`
	Error string `json:"error"`
}

// ShardResponse carries a completed shard back to the coordinator. The
// per-replica results are the full simulation results; every numeric
// field survives the JSON round trip exactly, which is what makes the
// merged campaign bit-identical to a local run.
type ShardResponse struct {
	First   int              `json:"first"`
	Count   int              `json:"count"`
	Results []*engine.Result `json:"results"`
	Retried int              `json:"retried"`
	// Failures lists replicas with no result (absolute indices).
	Failures []ShardFailure `json:"failures,omitempty"`
}

// NewShardResponse converts a core shard to wire form.
func NewShardResponse(sh *core.Shard) *ShardResponse {
	resp := &ShardResponse{
		First:   sh.First,
		Count:   sh.Count,
		Results: sh.Results,
		Retried: sh.Retried,
	}
	for _, f := range sh.Failures {
		resp.Failures = append(resp.Failures, ShardFailure{Index: f.Index, Error: f.Err.Error()})
	}
	return resp
}

// Shard converts the response back to a core shard, checking that the
// worker answered for the range that was requested.
func (r *ShardResponse) Shard(first, count int) (*core.Shard, error) {
	if r.First != first || r.Count != count {
		return nil, fmt.Errorf("cluster: worker answered shard [%d,+%d), requested [%d,+%d)",
			r.First, r.Count, first, count)
	}
	if len(r.Results) != count {
		return nil, fmt.Errorf("cluster: shard [%d,+%d) response carries %d results", first, count, len(r.Results))
	}
	sh := &core.Shard{
		First:   r.First,
		Count:   r.Count,
		Results: r.Results,
		Retried: r.Retried,
	}
	for _, f := range r.Failures {
		sh.Failures = append(sh.Failures, core.ReplicaFailure{Index: f.Index, Err: errors.New(f.Error)})
	}
	return sh, nil
}

// JoinRequest announces a worker's base URL to the coordinator.
type JoinRequest struct {
	URL string `json:"url"`
}
