package engine

import (
	"fmt"

	"repro/internal/stats"
	"repro/internal/trace"
)

// crcBits is the storage cost of the lightweight detection checksum.
const crcBits = 16

// crcMissProb is the aliasing probability of the 16-bit checksum: the
// chance a genuinely erroneous line reads as clean on a light probe.
const crcMissProb = 1.0 / 65536.0

// Spec is the fully resolved description of one simulation run — the
// single input of the engine: the system description (geometry, physics,
// energy, horizon, seed, fault plan, on-die ECC), the mechanism under
// test (scheme, policy, initial Interval), the optional substrates and
// instrumentation (Options), and the workload. The system's Timing and
// RiskTarget and the mechanism's Name ride along unused.
type Spec struct {
	System
	Mechanism
	Options
	// Workload drives demand traffic. With Options.Source set, its rates
	// still parameterise the read-race attribution and validation.
	Workload trace.Workload
	// TrackK overrides how many earliest crossings are tracked per line;
	// 0 selects max(T+4, 8) capped at 16.
	TrackK int
}

// TrafficSource supplies demand-write targets per epoch. Both
// trace.Generator and trace.Replayer satisfy it.
type TrafficSource interface {
	// WritesInEpoch returns the lines written in [t, t+dt), reusing buf.
	WritesInEpoch(r *stats.RNG, t, dt float64, buf []int) []int
}

// Validate checks the specification. Unlike System.Validate it needs no
// Timing or RiskTarget: the run uses neither.
func (c *Spec) Validate() error {
	if err := c.System.validateDevice(); err != nil {
		return err
	}
	if c.Scheme == nil {
		return fmt.Errorf("engine: Scheme is required")
	}
	if c.Policy == nil {
		return fmt.Errorf("engine: Policy is required")
	}
	if c.Interval <= 0 {
		return fmt.Errorf("engine: Interval must be positive")
	}
	if c.Horizon < c.Interval {
		return fmt.Errorf("engine: Horizon (%g) must cover at least one sweep (%g)", c.Horizon, c.Interval)
	}
	if c.Substeps < 0 {
		return fmt.Errorf("engine: Substeps must be non-negative")
	}
	if c.TrackK < 0 || c.TrackK > 16 {
		return fmt.Errorf("engine: TrackK must be in [0,16]")
	}
	if c.SLCFraction < 0 || c.SLCFraction > 1 {
		return fmt.Errorf("engine: SLCFraction must be in [0,1]")
	}
	if c.ECPEntries < 0 {
		return fmt.Errorf("engine: ECPEntries must be non-negative")
	}
	return c.Workload.Validate()
}
