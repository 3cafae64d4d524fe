package engine

import (
	"fmt"
	"math"

	"repro/internal/scrub"
)

// Device is a long-lived simulated memory device for continuous serving:
// the same cell-model state the one-shot pipeline runs to a horizon, held
// open indefinitely and advanced in bounded increments. Where RunContext
// owns the whole trajectory (sweep loop, interval control, wear census),
// a Device hands that control to the caller — the fleet control plane —
// which decides when to scrub what, at what simulated rate, and when to
// repair.
//
// A Device accumulates wear, drift state, and demand traffic across
// calls; with a fixed Spec.Seed the full trajectory is a pure function of
// the call sequence, so a fleet session replayed with the same control
// decisions reproduces byte-identical telemetry.
//
// Devices are not safe for concurrent use; the owner serialises access
// (the fleet package runs one session goroutine per device).
type Device struct {
	s *state
	// t is the device's simulated clock in seconds; every increment
	// advances it.
	t float64
	// cursor is the next patrol position in the fixed visit order.
	cursor int
	// rounds counts completed patrol passes over the whole device.
	rounds int64
}

// LineObservation is one scrub visit's per-line outcome — the telemetry
// record the fleet's error-statistics store folds in. Only visits that
// observed errors (or repaired a UE) are reported; clean visits carry no
// per-line information worth a record.
type LineObservation struct {
	// Line is the physical slot index visited.
	Line int `json:"line"`
	// ErrBits is the error count the visit observed before acting.
	ErrBits int `json:"err_bits"`
	// UE marks a visit that found the line uncorrectable (the engine
	// force-repaired it, counting the excursion exactly once).
	UE bool `json:"ue,omitempty"`
	// WroteBack marks a correctable line the policy rewrote.
	WroteBack bool `json:"wrote_back,omitempty"`
}

// ChunkReport summarises one bounded scrub increment.
type ChunkReport struct {
	// Lines is the number of lines visited.
	Lines int `json:"lines"`
	// CELines counts visited lines observed with at least one error that
	// remained correctable; UEs counts uncorrectable findings.
	CELines int64 `json:"ce_lines"`
	UEs     int64 `json:"ues"`
	// CorrectedBits is the real error bits scrubbed away by write-backs.
	CorrectedBits int64 `json:"corrected_bits"`
	WriteBacks    int64 `json:"write_backs"`
	// DemandWrites is the demand traffic applied during the increment.
	DemandWrites int64 `json:"demand_writes"`
	// SimSeconds is the simulated time the increment covered.
	SimSeconds float64 `json:"sim_seconds"`
	// WrappedRound marks a patrol chunk that completed a full pass over
	// the device (the cursor wrapped to zero).
	WrappedRound bool `json:"wrapped_round,omitempty"`
	// Observations lists the per-line findings (errored lines only). The
	// backing array is reused across calls; callers fold it before the
	// next increment.
	Observations []LineObservation `json:"-"`
}

// NewDevice validates the spec and initialises a persistent device at
// simulated time zero. The spec's Horizon and Interval are not used
// for stepping (the caller owns time); they only need to satisfy spec
// validation. The device's state comes fresh from statePool.New and is
// never returned to the pool: it lives as long as the device.
func NewDevice(spec Spec) (*Device, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	s := statePool.New().(*state)
	if err := s.init(spec); err != nil {
		return nil, err
	}
	return &Device{s: s}, nil
}

// Lines returns the device's logical line count.
func (d *Device) Lines() int { return d.s.lines }

// Slots returns the physical slot count (lines, +1 under leveling).
func (d *Device) Slots() int { return d.s.slots }

// Now returns the device's simulated clock in seconds.
func (d *Device) Now() float64 { return d.t }

// PatrolCursor returns the next patrol position in the visit order.
func (d *Device) PatrolCursor() int { return d.cursor }

// Rounds returns the number of completed patrol passes.
func (d *Device) Rounds() int64 { return d.rounds }

// Totals exposes the device's accumulated run counters (visits, UEs,
// corrected bits, demand writes, energy) in the engine's Result shape.
func (d *Device) Totals() Result {
	res := d.s.res
	res.SimSeconds = d.t
	// Fold the live on-die/profiling counters so fleet telemetry matches
	// what a one-shot run would report at this point.
	d.s.foldInstr(&res)
	return res
}

// begin opens one increment of dt simulated seconds: it checks dt and
// applies the window's demand traffic, exactly as the one-shot run loop
// applies it ahead of a substep's visits.
func (d *Device) begin(op string, dt float64, obs []LineObservation) (ChunkReport, error) {
	if dt <= 0 || math.IsInf(dt, 0) || math.IsNaN(dt) {
		return ChunkReport{}, fmt.Errorf("engine: %s dt must be positive and finite, got %g", op, dt)
	}
	rep := ChunkReport{SimSeconds: dt, Observations: obs[:0]}
	rep.DemandWrites = int64(d.s.applyDemand(d.t, dt))
	return rep, nil
}

// visitObserved performs one scrub visit at time tv and folds what it
// observed and did into the report.
func (d *Device) visitObserved(slot int, tv float64, rs *scrub.RoundStats, rep *ChunkReport) {
	o := d.s.visit(slot, tv, rs)
	rep.Lines++
	if o.ue {
		rep.UEs++
	} else if o.errBits > 0 {
		rep.CELines++
	}
	if o.wroteBack {
		rep.WriteBacks++
		rep.CorrectedBits += int64(o.errBits)
	}
	if o.ue || o.errBits > 0 {
		rep.Observations = append(rep.Observations, LineObservation{
			Line: slot, ErrBits: o.errBits, UE: o.ue, WroteBack: o.wroteBack,
		})
	}
}

// PatrolChunk performs one background-scrub increment: demand traffic is
// applied over the next dt simulated seconds, then the next n lines in
// patrol order are visited at times spread across the window. The cursor
// wraps at the end of the device, completing a patrol round. obs, when
// non-nil, seeds the report's observation buffer (reuse across chunks).
func (d *Device) PatrolChunk(n int, dt float64, obs []LineObservation) (ChunkReport, error) {
	if n <= 0 {
		return ChunkReport{}, fmt.Errorf("engine: patrol chunk size must be positive, got %d", n)
	}
	n = min(n, d.s.slots)
	rep, err := d.begin("patrol chunk", dt, obs)
	if err != nil {
		return ChunkReport{}, err
	}
	s := d.s
	rs := scrub.RoundStats{Capability: s.scheme.T()}
	for j := 0; j < n; j++ {
		slot, ok := s.patrolTarget(d.cursor)
		if d.cursor++; d.cursor == s.slots {
			d.cursor = 0
			d.rounds++
			rep.WrappedRound = true
		}
		if ok {
			d.visitObserved(slot, d.t+dt*float64(j+1)/float64(n), &rs, &rep)
		}
	}
	d.t += dt
	// A completed patrol pass is the device analogue of a sweep: it is
	// when the profiling cadence ticks.
	if rep.WrappedRound {
		s.maybeProfile(d.t)
	}
	return rep, nil
}

// ScrubRange performs one on-demand scrub increment over the logical
// lines [first, first+count): demand traffic is applied over dt simulated
// seconds, then every line in the range is visited. The patrol cursor is
// untouched — on-demand work preempts patrol, it does not advance it.
func (d *Device) ScrubRange(first, count int, dt float64, obs []LineObservation) (ChunkReport, error) {
	if first < 0 || count <= 0 || count > d.s.lines-first {
		return ChunkReport{}, fmt.Errorf("engine: scrub range [%d,+%d) outside device [0,%d)",
			first, count, d.s.lines)
	}
	rep, err := d.begin("scrub range", dt, obs)
	if err != nil {
		return ChunkReport{}, err
	}
	s := d.s
	rs := scrub.RoundStats{Capability: s.scheme.T()}
	for j := 0; j < count; j++ {
		if slot := s.mapSlot(first + j); !s.isGap(slot) {
			d.visitObserved(slot, d.t+dt*float64(j+1)/float64(count), &rs, &rep)
		}
	}
	d.t += dt
	return rep, nil
}

// SetPolicy swaps the scrub policy live. The change governs every visit
// from the next increment on; device state (drift, wear, clock, cursor)
// is untouched, so a session reconfigured mid-flight keeps its identity.
func (d *Device) SetPolicy(p scrub.Policy) error {
	if p == nil {
		return fmt.Errorf("engine: nil policy")
	}
	d.s.policy = p
	// hasCRC tracks the detection mode: light detection stores a CRC with
	// the line, which codewordBits charges on every rewrite.
	d.s.hasCRC = p.Detection() == scrub.LightDetect
	// Profiling state follows the policy: switching to a Profiler arms
	// (or re-arms, if the schedule changed) the at-risk machinery;
	// switching away drops it along with its accumulated set.
	if pp, ok := p.(scrub.Profiler); ok {
		cfg := pp.Profile()
		if err := cfg.Validate(); err != nil {
			return err
		}
		if d.s.prof == nil || d.s.prof.cfg != cfg {
			d.s.prof = newProfiler(cfg)
		}
	} else {
		d.s.prof = nil
	}
	return nil
}

// RepairLine models Post-Package-Repair/sparing of one logical line: the
// slot is remapped to a spare row — fresh endurance draws, zeroed write
// wear, and an immediate rewrite at the current clock. The repair write
// is charged to the scrub ledger, mirroring a maintenance operation.
func (d *Device) RepairLine(line int) error {
	if line < 0 || line >= d.s.lines {
		return fmt.Errorf("engine: repair line %d outside device [0,%d)", line, d.s.lines)
	}
	s := d.s
	s.freshCells(s.mapSlot(line), 0, d.t)
	s.acct.LineWrite(&s.res.ScrubEnergy, s.codewordBits())
	s.res.RepairWrites++
	return nil
}
