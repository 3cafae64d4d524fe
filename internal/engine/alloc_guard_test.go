//go:build !race

// The race runtime instruments allocations, so the guard only runs in
// normal test builds.

package engine

import (
	"context"
	"testing"
)

// maxAllocsPerRun is the allocation budget for one pooled engine run of
// the benchmark spec. A warm run allocates 7 objects (BENCH_engine.json,
// which bench-gate holds to 7 allocs/op); a run that misses the pool or
// the sampler cache allocates several dozen. The bound is loose enough to
// absorb a GC clearing the state pool mid-measurement, tight enough that
// losing any pooling layer — scratch recycling, the sampler cache,
// batched endurance draws — trips it.
const maxAllocsPerRun = 60

// TestEngineRunAllocGuard is the regression fence for the hot loop's
// allocation behaviour.
func TestEngineRunAllocGuard(t *testing.T) {
	spec := testSpec()
	// Warm the pool and the sampler cache so the measurement sees the
	// steady state a campaign runs in.
	if _, err := RunContext(context.Background(), spec); err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(10, func() {
		if _, err := RunContext(context.Background(), spec); err != nil {
			t.Fatal(err)
		}
	})
	if avg > maxAllocsPerRun {
		t.Errorf("engine run allocates %.1f objects/run, budget %d — a pooling layer regressed", avg, maxAllocsPerRun)
	}
}
