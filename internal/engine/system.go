package engine

import (
	"fmt"

	"repro/internal/ecc"
	"repro/internal/energy"
	"repro/internal/fault"
	"repro/internal/mem"
	"repro/internal/memctrl"
	"repro/internal/ondie"
	"repro/internal/pcm"
	"repro/internal/scrub"
	"repro/internal/trace"
	"repro/internal/wear"
)

// System bundles everything about the simulated machine that is *not* a
// scrub-mechanism choice: device physics, geometry, energy costs, horizon.
// (core re-exports this type; the study's defaults live in
// core.DefaultSystem.)
type System struct {
	Geometry          mem.Geometry
	PCM               pcm.Params
	Mix               pcm.LevelMix
	Wear              wear.Params
	InitialLineWrites uint32
	Energy            energy.Params
	Timing            memctrl.Params
	// Horizon is the simulated duration per run, in seconds.
	Horizon float64
	// Substeps per scrub sweep (0 = simulator default).
	Substeps int
	// RiskTarget is the per-line, per-sweep probability of exceeding the
	// ECC margin that fixed intervals are derived from.
	RiskTarget float64
	Seed       uint64
	// Fault injects scrub-path faults into every run of this system (nil
	// or all-zero = the perfect-scrub baseline). It lives on System, not
	// Mechanism, because an imperfect controller afflicts every mechanism
	// evaluated on the machine.
	Fault *fault.Plan
	// OnDie configures chip-internal ECC (nil or all-zero = none). Like
	// Fault it lives on System, not Mechanism: the on-die code is baked
	// into the memory parts, so every mechanism evaluated on the machine
	// sees the same hidden-error regime.
	OnDie *ondie.Config
}

// Validate checks the system description.
func (s *System) Validate() error {
	if err := s.Geometry.Validate(); err != nil {
		return err
	}
	if err := s.PCM.Validate(); err != nil {
		return err
	}
	if err := s.Mix.Validate(); err != nil {
		return err
	}
	if err := s.Wear.Validate(); err != nil {
		return err
	}
	if err := s.Energy.Validate(); err != nil {
		return err
	}
	if err := s.Timing.Validate(); err != nil {
		return err
	}
	if s.Horizon <= 0 {
		return fmt.Errorf("core: Horizon must be positive")
	}
	if s.RiskTarget <= 0 || s.RiskTarget >= 1 {
		return fmt.Errorf("core: RiskTarget must be in (0,1)")
	}
	if err := s.Fault.Validate(); err != nil {
		return err
	}
	if err := s.OnDie.Validate(); err != nil {
		return err
	}
	return nil
}

// Mechanism is one point in the scrub design space: an ECC scheme, a
// policy, and an initial sweep interval.
type Mechanism struct {
	Name     string
	Scheme   ecc.Scheme
	Policy   scrub.Policy
	Interval float64
}

// Options exposes simulator-only knobs that are not part of a Mechanism:
// the optional substrates layered under the scrub study, plus run
// instrumentation.
type Options struct {
	// GapMovePeriod enables Start-Gap wear leveling (0 = off).
	GapMovePeriod uint64
	// SLCFraction stores this fraction of writes drift-free in SLC form.
	SLCFraction float64
	// Source replays an explicit event stream instead of the workload's
	// synthetic generator (nil = synthetic).
	Source TrafficSource
	// ECPEntries patches this many known stuck cells per line before ECC
	// (error-correcting pointers; 0 = off).
	ECPEntries int
	// RecordRounds retains per-sweep statistics in the result.
	RecordRounds bool
	// Hooks instruments the run (spans, progress, rounds); nil runs
	// uninstrumented. Hooks never change results.
	Hooks *Hooks
}

// ResolveSpec is the repository's single conversion site from the layered
// (system, mechanism, workload, options) description to the engine's
// resolved Spec. Every runner — core's one-shot, matrix, replicated and
// shard runners, the scrubd service, the cluster workers — goes through
// here, so config plumbing semantics cannot drift between execution
// paths.
func ResolveSpec(sys System, m Mechanism, w trace.Workload, o Options) Spec {
	return Spec{
		Geometry:          sys.Geometry,
		PCM:               sys.PCM,
		Mix:               sys.Mix,
		Wear:              sys.Wear,
		InitialLineWrites: sys.InitialLineWrites,
		Energy:            sys.Energy,
		Scheme:            m.Scheme,
		Policy:            m.Policy,
		ScrubInterval:     m.Interval,
		Horizon:           sys.Horizon,
		Substeps:          sys.Substeps,
		Workload:          w,
		Seed:              sys.Seed,
		Fault:             sys.Fault,
		OnDie:             sys.OnDie,
		GapMovePeriod:     o.GapMovePeriod,
		SLCFraction:       o.SLCFraction,
		Source:            o.Source,
		ECPEntries:        o.ECPEntries,
		RecordRounds:      o.RecordRounds,
		Hooks:             o.Hooks,
	}
}
