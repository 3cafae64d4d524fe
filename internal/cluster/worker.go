package cluster

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/httpx"
	"repro/internal/service"
	"repro/internal/trace"
)

// Worker executes shard requests on behalf of a coordinator. Admission
// is bounded: at most MaxInFlight shards run concurrently; requests
// beyond that are rejected with 429 so the coordinator can place them
// elsewhere instead of queueing blindly behind a busy node.
type Worker struct {
	max int
	sem chan struct{}

	// MaxBodyBytes caps the shard-request body (0 = 1 MiB). Set it
	// before mounting ShardHandler.
	MaxBodyBytes int64

	executed atomic.Int64
	failed   atomic.Int64
	rejected atomic.Int64
	busy     atomic.Int64

	// executedByClass splits executed shards by the spec's scheduling
	// class, so a worker's mix of interactive/normal/batch work is
	// visible per node.
	executedByClass [3]atomic.Int64

	// Steal-side counters: shards claimed from a coordinator's pending
	// board, those executed and delivered, and those whose result won.
	stealsClaimed  atomic.Int64
	stealsExecuted atomic.Int64
	stealsWon      atomic.Int64
}

// NewWorker sizes a worker's shard executor (maxInFlight 0 = GOMAXPROCS).
func NewWorker(maxInFlight int) *Worker {
	if maxInFlight <= 0 {
		maxInFlight = runtime.GOMAXPROCS(0)
	}
	return &Worker{max: maxInFlight, sem: make(chan struct{}, maxInFlight)}
}

// ShardHandler serves POST /v1/cluster/shards: decode a ShardRequest,
// run the replica range through the resilient shard runner, and return
// the full per-replica results. Cancelling the request (the coordinator
// failing over, or the job being cancelled) cancels the simulation.
func (w *Worker) ShardHandler() http.Handler {
	return http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			httpx.WriteError(rw, http.StatusMethodNotAllowed, fmt.Errorf("cluster: %s not allowed", r.Method))
			return
		}
		var req ShardRequest
		if err := httpx.DecodeJSON(rw, r, w.MaxBodyBytes, true, &req); err != nil {
			if httpx.TooLarge(err) {
				httpx.WriteError(rw, http.StatusRequestEntityTooLarge, fmt.Errorf("cluster: shard request: %w", err))
				return
			}
			httpx.WriteError(rw, http.StatusBadRequest, fmt.Errorf("cluster: decode shard request: %w", err))
			return
		}
		job, err := prepareShard(&req)
		if err != nil {
			httpx.WriteError(rw, http.StatusBadRequest, err)
			return
		}
		select {
		case w.sem <- struct{}{}:
		default:
			w.rejected.Add(1)
			// The priority rides the spec across the wire: a rejected
			// interactive shard is invited back sooner than a batch one.
			service.SetRetryAfterClass(rw.Header(), len(w.sem), w.max, job.class)
			httpx.WriteError(rw, http.StatusTooManyRequests,
				fmt.Errorf("cluster: worker at capacity (%d shards in flight)", w.max))
			return
		}
		defer func() { <-w.sem }()

		if hdr := r.Header.Get(DeadlineHeader); hdr != "" {
			dl, err := time.Parse(time.RFC3339Nano, hdr)
			if err != nil {
				httpx.WriteError(rw, http.StatusBadRequest,
					fmt.Errorf("cluster: bad %s header %q: %v", DeadlineHeader, hdr, err))
				return
			}
			job.deadline = dl
		}
		resp, err := w.execute(r.Context(), job)
		if err != nil {
			w.failed.Add(1)
			httpx.WriteError(rw, http.StatusInternalServerError, err)
			return
		}
		httpx.WriteJSON(rw, http.StatusOK, resp)
	})
}

// preparedShard is a shard request checked and built for execution.
type preparedShard struct {
	first, count int
	class        service.Class
	sys          core.System
	mech         core.Mechanism
	wl           trace.Workload
	deadline     time.Time // zero = none
}

// prepareShard normalises req's spec, checks its range and builds the
// runnable triple, once for either delivery path: pushed shards
// (ShardHandler) and pulled ones (stealShard). An error is the
// request's fault.
func prepareShard(req *ShardRequest) (*preparedShard, error) {
	norm, err := req.Spec.Normalized()
	if err != nil {
		return nil, err
	}
	req.Spec = norm
	if err := req.Validate(); err != nil {
		return nil, err
	}
	sys, mech, wl, err := norm.Build()
	if err != nil {
		return nil, err
	}
	return &preparedShard{
		first: req.First, count: req.Count, class: norm.Class(),
		sys: sys, mech: mech, wl: wl, deadline: req.deadline,
	}, nil
}

// execute runs one admitted, prepared shard to a wire response,
// bounding the simulation by its propagated deadline. The caller holds
// the admission slot.
func (w *Worker) execute(ctx context.Context, job *preparedShard) (*ShardResponse, error) {
	if !job.deadline.IsZero() {
		var cancel context.CancelFunc
		ctx, cancel = context.WithDeadline(ctx, job.deadline)
		defer cancel()
	}
	w.busy.Add(1)
	defer w.busy.Add(-1)
	sh, err := core.RunShardContext(ctx, job.sys, job.mech, job.wl, job.first, job.count)
	if err != nil {
		return nil, err
	}
	w.executed.Add(1)
	if c := job.class; c >= 0 && int(c) < len(w.executedByClass) {
		w.executedByClass[c].Add(1)
	}
	return NewShardResponse(sh), nil
}

// WorkerSnapshot is a point-in-time view of a worker's shard executor.
type WorkerSnapshot struct {
	ShardsExecuted int64 `json:"shards_executed"`
	ShardsFailed   int64 `json:"shards_failed"`
	ShardsRejected int64 `json:"shards_rejected"`
	ShardsBusy     int64 `json:"shards_busy"`
	MaxInFlight    int   `json:"max_in_flight"`
	// Per-class executed splits (by the spec's scheduling class).
	ShardsInteractive int64 `json:"shards_interactive"`
	ShardsNormal      int64 `json:"shards_normal"`
	ShardsBatch       int64 `json:"shards_batch"`
	// Steal-side counters: pending shards pulled from the coordinator,
	// results delivered, and deliveries that won their range.
	StealsClaimed  int64 `json:"steals_claimed"`
	StealsExecuted int64 `json:"steals_executed"`
	StealsWon      int64 `json:"steals_won"`
}

// Snapshot returns the worker's counters.
func (w *Worker) Snapshot() WorkerSnapshot {
	return WorkerSnapshot{
		ShardsExecuted:    w.executed.Load(),
		ShardsFailed:      w.failed.Load(),
		ShardsRejected:    w.rejected.Load(),
		ShardsBusy:        w.busy.Load(),
		MaxInFlight:       w.max,
		ShardsInteractive: w.executedByClass[service.ClassInteractive].Load(),
		ShardsNormal:      w.executedByClass[service.ClassNormal].Load(),
		ShardsBatch:       w.executedByClass[service.ClassBatch].Load(),
		StealsClaimed:     w.stealsClaimed.Load(),
		StealsExecuted:    w.stealsExecuted.Load(),
		StealsWon:         w.stealsWon.Load(),
	}
}

// WritePrometheus renders the worker counters in the Prometheus text
// format; scrubd appends it to /metrics on worker nodes.
func (w *Worker) WritePrometheus(out io.Writer) error {
	s := w.Snapshot()
	return httpx.WriteProm(out, []httpx.Metric{
		httpx.Counter("scrubd_cluster_worker_shards_executed_total", "Shards executed successfully.", float64(s.ShardsExecuted)),
		httpx.Counter("scrubd_cluster_worker_shards_failed_total", "Shards whose execution failed.", float64(s.ShardsFailed)),
		httpx.Counter("scrubd_cluster_worker_shards_rejected_total", "Shards rejected at capacity.", float64(s.ShardsRejected)),
		httpx.Gauge("scrubd_cluster_worker_shards_busy", "Shards currently executing.", float64(s.ShardsBusy)),
		httpx.Gauge("scrubd_cluster_worker_max_inflight", "Concurrent shard bound.", float64(s.MaxInFlight)),
		httpx.Counter("scrubd_cluster_worker_shards_interactive_total", "Interactive-class shards executed.", float64(s.ShardsInteractive)),
		httpx.Counter("scrubd_cluster_worker_shards_normal_total", "Normal-class shards executed.", float64(s.ShardsNormal)),
		httpx.Counter("scrubd_cluster_worker_shards_batch_total", "Batch-class shards executed.", float64(s.ShardsBatch)),
		httpx.Counter("scrubd_cluster_worker_steals_claimed_total", "Pending shards claimed from the coordinator.", float64(s.StealsClaimed)),
		httpx.Counter("scrubd_cluster_worker_steals_executed_total", "Stolen shards executed and delivered.", float64(s.StealsExecuted)),
		httpx.Counter("scrubd_cluster_worker_steals_won_total", "Stolen-shard deliveries that won their range.", float64(s.StealsWon)),
	})
}
