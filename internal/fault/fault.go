// Package fault models imperfections in the scrub machinery itself.
//
// The simulator's baseline assumption — and the implicit assumption of the
// source paper — is that the scrub path is perfect: reads observe the true
// array state, every sweep visits every line, the lightweight checksum
// aliases only at its design probability, the ECC decoder is fed pristine
// check bits, and the controller launches sweeps exactly on schedule.
// Real controllers violate all five. HARP-style analyses show that
// imperfect error *detection* (miscorrections, aliasing, missed checks)
// can dominate fleet UE rates, so this package makes each imperfection a
// tunable, independently seeded fault site:
//
//   - ReadFlipRate: a scrub read is itself a read of an error-prone
//     medium; with this probability per visit the read observes phantom
//     extra error bits (transient — the array is untouched).
//   - SweepSkipRate: with this probability per sweep the sweep is
//     interrupted and silently skips a random suffix of its patrol order
//     (e.g. preempted by demand traffic and never resumed).
//   - ProbeMissRate: additional false-clean probability of the light
//     detection probe beyond the checksum's intrinsic aliasing, modelling
//     detector aliasing under correlated error patterns.
//   - StuckCheckRate: fraction of lines whose ECC check-bit storage is
//     itself stuck; a full decode of such a line works against corrupted
//     syndromes, eroding its effective correction margin by
//     StuckCheckBits.
//   - StallRate: with this probability per sweep the controller stalls
//     and the sweep takes StallFactor times its nominal interval,
//     stretching the window in which drift accumulates unchecked.
//
// All rates default to zero; a zero Plan (or a nil one) is defined to be
// bit-identical to a simulation without the package. The injector draws
// from its own per-site RNG streams, never from the simulator's RNG, so
// enabling one site does not perturb the event sequence of another.
package fault

import (
	"fmt"

	"repro/internal/stats"
)

// Default knob values applied by NewInjector when the Plan leaves the
// corresponding field zero.
const (
	// DefaultReadFlipMaxBits bounds phantom bits per faulty read.
	DefaultReadFlipMaxBits = 4
	// DefaultStuckCheckBits is the correction margin lost on a line with
	// stuck check bits.
	DefaultStuckCheckBits = 2
	// DefaultStallFactor stretches a stalled sweep's interval.
	DefaultStallFactor = 2.0
)

// Plan configures scrub-path fault injection. The zero value disables
// every site and is guaranteed not to perturb a run.
type Plan struct {
	// ReadFlipRate is the per-visit probability that the scrub read
	// observes phantom error bits. [0,1]
	ReadFlipRate float64 `json:"read_flip_rate,omitempty"`
	// ReadFlipMaxBits bounds the phantom bits of one faulty read; a
	// faulty read observes Uniform{1..ReadFlipMaxBits} extra bits.
	// 0 selects DefaultReadFlipMaxBits.
	ReadFlipMaxBits int `json:"read_flip_max_bits,omitempty"`
	// SweepSkipRate is the per-sweep probability that the sweep is
	// interrupted, skipping a uniformly random suffix of the patrol. [0,1]
	SweepSkipRate float64 `json:"sweep_skip_rate,omitempty"`
	// ProbeMissRate is the additional per-probe false-clean probability of
	// the lightweight detector, on top of its intrinsic aliasing. [0,1]
	ProbeMissRate float64 `json:"probe_miss_rate,omitempty"`
	// StuckCheckRate is the per-line probability that the line's ECC
	// check-bit storage is stuck for the whole run. [0,1]
	StuckCheckRate float64 `json:"stuck_check_rate,omitempty"`
	// StuckCheckBits is the correction capability lost on a stuck-check
	// line. 0 selects DefaultStuckCheckBits.
	StuckCheckBits int `json:"stuck_check_bits,omitempty"`
	// StallRate is the per-sweep probability of a controller stall. [0,1]
	StallRate float64 `json:"stall_rate,omitempty"`
	// StallFactor multiplies a stalled sweep's interval; must be >= 1
	// when set. 0 selects DefaultStallFactor.
	StallFactor float64 `json:"stall_factor,omitempty"`
	// Seed offsets the injector's RNG streams so fault sequences can be
	// varied independently of the simulation seed (0 is a valid offset).
	Seed uint64 `json:"seed,omitempty"`
}

// Enabled reports whether any fault site has a non-zero rate.
func (p *Plan) Enabled() bool {
	if p == nil {
		return false
	}
	return p.ReadFlipRate > 0 || p.SweepSkipRate > 0 || p.ProbeMissRate > 0 ||
		p.StuckCheckRate > 0 || p.StallRate > 0
}

// Validate checks the plan.
func (p *Plan) Validate() error {
	if p == nil {
		return nil
	}
	rates := []struct {
		name string
		v    float64
	}{
		{"ReadFlipRate", p.ReadFlipRate},
		{"SweepSkipRate", p.SweepSkipRate},
		{"ProbeMissRate", p.ProbeMissRate},
		{"StuckCheckRate", p.StuckCheckRate},
		{"StallRate", p.StallRate},
	}
	for _, r := range rates {
		if r.v < 0 || r.v > 1 {
			return fmt.Errorf("fault: %s must be in [0,1], got %g", r.name, r.v)
		}
	}
	if p.ReadFlipMaxBits < 0 {
		return fmt.Errorf("fault: ReadFlipMaxBits must be >= 0, got %d", p.ReadFlipMaxBits)
	}
	if p.StuckCheckBits < 0 {
		return fmt.Errorf("fault: StuckCheckBits must be >= 0, got %d", p.StuckCheckBits)
	}
	if p.StallFactor != 0 && p.StallFactor < 1 {
		return fmt.Errorf("fault: StallFactor must be >= 1 (or 0 for default), got %g", p.StallFactor)
	}
	return nil
}

// Counts attributes injected-fault activity so experiments can separate
// UEs caused by the medium (drift, wear) from UEs caused by the scrub
// machinery. All counters are zero when no plan is configured.
type Counts struct {
	// ReadFaultVisits is the number of scrub visits whose read saw
	// phantom bits; PhantomBits is their total.
	ReadFaultVisits int64
	PhantomBits     int64
	// SweepsInterrupted counts interrupted sweeps; LinesSkipped is the
	// total patrol positions those interruptions dropped.
	SweepsInterrupted int64
	LinesSkipped      int64
	// ProbeFalseCleans counts injected light-probe false-clean results
	// (beyond the checksum's intrinsic aliasing).
	ProbeFalseCleans int64
	// StuckCheckLines is the number of lines designated stuck-check at
	// initialisation; StuckDecodes counts full decodes performed on them
	// while they held errors (each a potential miscorrection).
	StuckCheckLines int64
	StuckDecodes    int64
	// Stalls counts controller stalls; StallSeconds is the extra sweep
	// time they added.
	Stalls       int64
	StallSeconds float64
	// InducedUEs counts UEs that would have been correctable but for an
	// injected fault (phantom read bits or stuck check bits).
	InducedUEs int64
}

// Any reports whether any fault fired during the run.
func (c *Counts) Any() bool {
	return c.ReadFaultVisits > 0 || c.SweepsInterrupted > 0 || c.ProbeFalseCleans > 0 ||
		c.StuckCheckLines > 0 || c.Stalls > 0
}

// Injector is the runtime face of a Plan: the simulator consults it at
// each fault site. Each site draws from its own independently seeded
// stream so sites do not perturb one another. Not safe for concurrent
// use — one Injector per simulation run.
type Injector struct {
	plan Plan

	readRNG  *stats.RNG
	sweepRNG *stats.RNG
	probeRNG *stats.RNG
	stuckRNG *stats.RNG
	stallRNG *stats.RNG

	counts Counts
}

// site salts for deriving independent per-site streams from one seed.
const (
	saltRead  = 0x5ca1ab1e0001
	saltSweep = 0x5ca1ab1e0002
	saltProbe = 0x5ca1ab1e0003
	saltStuck = 0x5ca1ab1e0004
	saltStall = 0x5ca1ab1e0005
)

// NewInjector builds an injector for the plan, or returns nil when the
// plan is nil or all-zero (the simulator treats a nil injector as "no
// fault path at all", guaranteeing bit-identical baseline behaviour).
// seed is the simulation seed; the plan's own Seed is mixed in so fault
// sequences can be re-rolled independently of the simulation.
func NewInjector(p *Plan, seed uint64) (*Injector, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if !p.Enabled() {
		return nil, nil
	}
	plan := *p
	if plan.ReadFlipMaxBits == 0 {
		plan.ReadFlipMaxBits = DefaultReadFlipMaxBits
	}
	if plan.StuckCheckBits == 0 {
		plan.StuckCheckBits = DefaultStuckCheckBits
	}
	if plan.StallFactor == 0 {
		plan.StallFactor = DefaultStallFactor
	}
	base := seed ^ (plan.Seed * 0x9e3779b97f4a7c15)
	return &Injector{
		plan:     plan,
		readRNG:  stats.NewRNG(base ^ saltRead),
		sweepRNG: stats.NewRNG(base ^ saltSweep),
		probeRNG: stats.NewRNG(base ^ saltProbe),
		stuckRNG: stats.NewRNG(base ^ saltStuck),
		stallRNG: stats.NewRNG(base ^ saltStall),
	}, nil
}

// Plan returns the effective plan (with defaults resolved).
func (in *Injector) Plan() Plan { return in.plan }

// Counts returns the fault activity accumulated so far.
func (in *Injector) Counts() Counts { return in.counts }

// ReadFlip returns the phantom error bits this scrub read observes
// (0 almost always; the array state is untouched either way).
func (in *Injector) ReadFlip() int {
	if in.plan.ReadFlipRate <= 0 || in.readRNG.Float64() >= in.plan.ReadFlipRate {
		return 0
	}
	bits := 1 + in.readRNG.Intn(in.plan.ReadFlipMaxBits)
	in.counts.ReadFaultVisits++
	in.counts.PhantomBits += int64(bits)
	return bits
}

// SweepCutoff returns the number of patrol positions this sweep actually
// covers: slots when the sweep completes, or a uniformly random cutoff in
// [0, slots) when it is interrupted.
func (in *Injector) SweepCutoff(slots int) int {
	if in.plan.SweepSkipRate <= 0 || in.sweepRNG.Float64() >= in.plan.SweepSkipRate {
		return slots
	}
	cut := in.sweepRNG.Intn(slots)
	in.counts.SweepsInterrupted++
	in.counts.LinesSkipped += int64(slots - cut)
	return cut
}

// ProbeFalseClean reports whether the light probe on an erroneous line
// falsely reads clean due to an injected detector fault.
func (in *Injector) ProbeFalseClean() bool {
	if in.plan.ProbeMissRate <= 0 || in.probeRNG.Float64() >= in.plan.ProbeMissRate {
		return false
	}
	in.counts.ProbeFalseCleans++
	return true
}

// LineStuckCheck decides, once per line at initialisation, whether the
// line's check-bit storage is stuck; it returns the correction margin the
// line loses (0 for healthy lines).
func (in *Injector) LineStuckCheck() int {
	if in.plan.StuckCheckRate <= 0 || in.stuckRNG.Float64() >= in.plan.StuckCheckRate {
		return 0
	}
	in.counts.StuckCheckLines++
	return in.plan.StuckCheckBits
}

// NoteStuckDecode records a full decode performed against stuck check
// bits while the line held errors.
func (in *Injector) NoteStuckDecode() { in.counts.StuckDecodes++ }

// NoteInducedUE records a UE that only the injected fault made
// uncorrectable.
func (in *Injector) NoteInducedUE() { in.counts.InducedUEs++ }

// StallFactor returns the interval multiplier for the upcoming sweep:
// 1 normally, the plan's StallFactor when the controller stalls.
// The caller reports the stretched seconds via NoteStallSeconds.
func (in *Injector) StallFactor() float64 {
	if in.plan.StallRate <= 0 || in.stallRNG.Float64() >= in.plan.StallRate {
		return 1
	}
	in.counts.Stalls++
	return in.plan.StallFactor
}

// NoteStallSeconds accumulates the extra sweep time a stall added.
func (in *Injector) NoteStallSeconds(extra float64) { in.counts.StallSeconds += extra }
