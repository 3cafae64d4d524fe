package engine

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"
)

// Stage identifies one section of the run pipeline for span accounting.
type Stage uint8

const (
	// StageDemand is the application of demand writes ahead of a substep's
	// scrub visits (one span per substep; Count accumulates events).
	StageDemand Stage = iota
	// StageOnDie is the chip-internal ECC visibility transform applied
	// before any controller-side check, plus the periodic active
	// profiling rounds that probe through it (Count accumulates
	// transformed observations and rounds).
	StageOnDie
	// StageProbe is the lightweight CRC probe of a visit under light
	// detection.
	StageProbe
	// StageDecode is a full ECC decode (always under FullDecode; on probe
	// escalation under LightDetect).
	StageDecode
	// StageKernel is the word-parallel codec kernel exercised alongside
	// the model's count-based check: in trace mode the engine runs a real
	// line decode (and, under light detection, a real CRC probe) through
	// internal/codekit-backed codecs on a scratch line carrying the
	// observed error count, so `scrubsim -trace-stages` reports what the
	// decode hardware path actually costs. Never active outside trace
	// mode and never touches the RNG.
	StageKernel
	// StageWriteBack is a policy write-back of a correctable line.
	StageWriteBack
	// StageRepair is the forced rewrite of an uncorrectable line.
	StageRepair
	// StageControl is the per-sweep interval-control and round
	// bookkeeping work.
	StageControl
	numStages
)

var stageNames = [numStages]string{
	"demand", "ondie", "probe", "decode", "kernel", "writeback", "repair", "control",
}

// String returns the stage's short lowercase name.
func (s Stage) String() string {
	if int(s) < len(stageNames) {
		return stageNames[s]
	}
	return "unknown"
}

// Stages lists every pipeline stage in execution order.
func Stages() []Stage {
	out := make([]Stage, numStages)
	for i := range out {
		out[i] = Stage(i)
	}
	return out
}

// Hooks are the engine's pluggable instrumentation points. All fields are
// optional; none of them touches the RNG stream, so instrumenting a run
// never changes its Result.
type Hooks struct {
	// Progress is called after every completed sweep with the 1-based
	// sweep count, the simulated time reached, and the horizon.
	Progress func(sweep int, simSeconds, horizon float64)
	// Round is called after every completed sweep with its record,
	// independent of Spec.RecordRounds.
	Round func(RoundRecord)
	// Spans, when non-nil, records wall-clock time per pipeline stage.
	// Span timing costs two clock reads per instrumented section, so it
	// is reserved for profiling runs (scrubsim -trace-stages); leave nil
	// on hot campaign paths.
	Spans *SpanRecorder
}

// SpanRecorder accumulates per-stage wall-clock spans. It is safe for
// concurrent use, so one recorder may aggregate across replicas.
type SpanRecorder struct {
	counts [numStages]atomic.Int64
	nanos  [numStages]atomic.Int64
}

// start opens a span: it reads the clock, or returns the zero time on a
// nil recorder, which records nothing.
func (r *SpanRecorder) start() time.Time {
	if r == nil {
		return time.Time{}
	}
	return time.Now()
}

// observe folds the span opened at start into the recorder; n is the
// number of logical operations the span covered (events for StageDemand,
// 1 elsewhere). A nil recorder ignores it.
func (r *SpanRecorder) observe(st Stage, start time.Time, n int64) {
	if r != nil {
		r.add(st, start, n)
	}
}

// add is observe's slow path, split out so observe stays inlinable.
func (r *SpanRecorder) add(st Stage, start time.Time, n int64) {
	r.nanos[st].Add(int64(time.Since(start)))
	r.counts[st].Add(n)
}

// Span is one stage's accumulated timing.
type Span struct {
	Stage string `json:"stage"`
	Count int64  `json:"count"`
	Nanos int64  `json:"nanos"`
	// MeanNanos is Nanos/Count (0 when the stage never ran).
	MeanNanos float64 `json:"mean_nanos"`
}

// Spans snapshots the recorder in pipeline order.
func (r *SpanRecorder) Spans() []Span {
	out := make([]Span, 0, numStages)
	for st := Stage(0); st < numStages; st++ {
		s := Span{Stage: st.String(), Count: r.counts[st].Load(), Nanos: r.nanos[st].Load()}
		if s.Count > 0 {
			s.MeanNanos = float64(s.Nanos) / float64(s.Count)
		}
		out = append(out, s)
	}
	return out
}

// Totals is a snapshot of the engine's process-wide run counters. scrubd
// exposes it on /metrics as the scrubd_engine_* family.
type Totals struct {
	// Runs counts completed runs; CanceledRuns counts runs that ended on
	// a cancelled or expired context.
	Runs         int64 `json:"runs"`
	CanceledRuns int64 `json:"canceled_runs"`

	// Work performed by completed runs.
	Visits       int64 `json:"visits"`
	Sweeps       int64 `json:"sweeps"`
	Probes       int64 `json:"probes"`
	Decodes      int64 `json:"decodes"`
	WriteBacks   int64 `json:"write_backs"`
	Repairs      int64 `json:"repairs"`
	DemandWrites int64 `json:"demand_writes"`
	UEs          int64 `json:"ues"`
	// SimSeconds accumulates simulated time across completed runs.
	SimSeconds float64 `json:"sim_seconds"`

	// On-die ECC and active profiling (zero while the subsystem is off).
	OnDieCorrectedBits int64 `json:"ondie_corrected_bits"`
	ProfileRounds      int64 `json:"profile_rounds"`
	ProfileReads       int64 `json:"profile_reads"`
	AtRiskLines        int64 `json:"at_risk_lines"`
	AtRiskVisits       int64 `json:"at_risk_visits"`
}

// totals is the live process-wide aggregate, updated once per run and
// never from the hot loop. SimSeconds is summed in integer nanoseconds,
// so the total does not depend on the order concurrent runs finish in.
var totals struct {
	sync.Mutex
	Totals
	simNanos int64
}

// recordRun folds one finished run into the process-wide totals.
func recordRun(res *Result, err error) {
	totals.Lock()
	defer totals.Unlock()
	if err != nil {
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			totals.CanceledRuns++
		}
		return
	}
	t := &totals.Totals
	t.Runs++
	t.Visits += res.ScrubVisits
	t.Sweeps += int64(res.Sweeps)
	t.Probes += res.ScrubProbes
	t.Decodes += res.ScrubDecodes
	t.WriteBacks += res.ScrubWriteBacks
	t.Repairs += res.RepairWrites
	t.DemandWrites += res.DemandWrites
	t.UEs += res.UEs
	totals.simNanos += int64(res.SimSeconds * 1e9)
	t.SimSeconds = float64(totals.simNanos) / 1e9
	t.OnDieCorrectedBits += res.OnDieCorrectedBits
	t.ProfileRounds += res.ProfileRounds
	t.ProfileReads += res.ProfileReads
	t.AtRiskLines += int64(res.AtRiskLines)
	t.AtRiskVisits += res.AtRiskVisits
}

// Stats snapshots the process-wide engine totals.
func Stats() Totals {
	totals.Lock()
	defer totals.Unlock()
	return totals.Totals
}
