// Package engine owns the canonical simulation run pipeline: every
// execution path in the repository — the core runners, the scrubd worker
// pool, cluster shard execution and the fleet's long-lived devices —
// funnels into the engine's single per-line scrub/detect/correct/write-back
// loop. RunContext runs a Spec to its horizon; NewDevice holds the same
// state open for caller-driven stepping. Both step through the same
// helpers: applyDemand lands a window's demand writes, patrolTarget picks
// a patrol visit's slot (skipping the leveler's gap, applying the
// profiling redirect), and visit probes, decodes and writes back one line
// and returns what it saw and did.
//
// A Spec embeds the System, the Mechanism under test and the Options
// (optional substrates and instrumentation), plus the workload, so
// ResolveSpec is a plain struct literal. The engine executes it with:
//
//   - pluggable instrumentation (per-stage span timings, progress and
//     round callbacks — see Hooks) that is free when unused;
//   - process-wide run totals (see Stats) surfaced on scrubd's /metrics;
//   - bounded-latency cancellation: ctx is polled every visitStride scrub
//     visits, so a cancelled run returns in O(stride) visits rather than
//     at the next substep boundary;
//   - an allocation-lean hot path: per-run scratch (line state, crossing
//     buffers, patrol order) is recycled through a sync.Pool, drift
//     samplers are shared across runs of the same device parameters, and
//     endurance initialisation uses batched RNG draws.
//
// None of this changes results: the golden fingerprint tests in this
// package and internal/core pin a run's Result for a given Spec.
package engine

import "context"

// RunContext executes the spec under a context. Cancellation is polled
// every visitStride scrub visits and at every substep boundary, so a
// cancelled run returns promptly with an error wrapping ctx.Err(). No
// partial result is returned.
func RunContext(ctx context.Context, spec Spec) (*Result, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	s := statePool.Get().(*state)
	if err := s.init(spec); err != nil {
		return nil, err
	}
	runErr := s.run(ctx)
	res := s.res
	s.release()
	recordRun(&res, runErr)
	if runErr != nil {
		return nil, runErr
	}
	return &res, nil
}
