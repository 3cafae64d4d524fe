package fleet

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/engine"
)

// ScrubState is an on-demand scrub job's lifecycle position.
type ScrubState string

const (
	ScrubQueued  ScrubState = "queued"
	ScrubRunning ScrubState = "running"
	ScrubDone    ScrubState = "done"
)

// RegionReport accumulates an on-demand scrub's per-range findings.
type RegionReport struct {
	First int `json:"first"`
	Count int `json:"count"`
	// LinesScrubbed counts visits performed so far (== Count when done).
	LinesScrubbed int `json:"lines_scrubbed"`
	// Chunks is the number of increments the range took — each one a
	// patrol-preemption opportunity seized.
	Chunks int64 `json:"chunks"`
	// CELines counts visits that observed correctable errors; UEs counts
	// uncorrectable findings — the per-range CE/UE report.
	CELines       int64   `json:"ce_lines"`
	UEs           int64   `json:"ues"`
	CorrectedBits int64   `json:"corrected_bits"`
	WriteBacks    int64   `json:"write_backs"`
	SimSeconds    float64 `json:"sim_seconds"`
	// RepairsTriggered counts PPR events fired by this job's telemetry.
	RepairsTriggered int64 `json:"repairs_triggered,omitempty"`
}

// scrubJob is one on-demand region scrub owned by a device session.
type scrubJob struct {
	id     string
	state  ScrubState
	report RegionReport
}

// ScrubView is an on-demand scrub job's externally visible state.
type ScrubView struct {
	ID     string       `json:"id"`
	Device string       `json:"device"`
	State  ScrubState   `json:"state"`
	Report RegionReport `json:"report"`
}

// RepairEvent is one auditable Post-Package-Repair/sparing decision.
type RepairEvent struct {
	// Seq orders events within the device (1-based).
	Seq int `json:"seq"`
	// Line is the logical line spared.
	Line int `json:"line"`
	// DeviceSeconds is the device's simulated clock at the decision.
	DeviceSeconds float64 `json:"device_seconds"`
	// WindowCEs is the sliding-window CE count that crossed the
	// threshold.
	WindowCEs int `json:"window_ces"`
	// Threshold is the configured trigger at the time of the repair.
	Threshold int `json:"threshold"`
	// Trigger names the scrub work that surfaced the decision:
	// "patrol" or "scrub:<job-id>".
	Trigger string `json:"trigger"`
}

// Device is one managed fleet member: a persistent engine device plus its
// patrol session state, on-demand scrub queue, error-statistics store,
// and repair engine. All mutable state is guarded by mu; the session
// goroutine and the HTTP handlers both go through the exported methods.
type Device struct {
	ID   string
	Name string

	mu     sync.Mutex
	dev    *engine.Device
	patrol PatrolConfig
	repair RepairConfig
	stats  *statsStore

	queue  []*scrubJob // pending + active on-demand scrubs, FIFO
	scrubs map[string]*scrubJob
	order  []string // scrub IDs in submission order

	repairs    []RepairEvent
	sparesUsed int
	policyName string
	registered time.Time
	removed    bool

	// Counters surfaced as scrubd_fleet_* metrics.
	chunks, patrolChunks, scrubChunks int64
	preemptions                       int64

	// kick wakes the session loop early (new scrub job, config patch).
	kick chan struct{}

	obsBuf []engine.LineObservation
}

// TickOutcome reports what one session increment did.
type TickOutcome struct {
	// Worked is false when the device was paused with no pending scrubs
	// (the session sleeps until kicked).
	Worked bool
	// Preempted marks an increment spent on an on-demand scrub while
	// background patrol had work it deferred.
	Preempted bool
	// ScrubID is the on-demand job the increment served, if any.
	ScrubID string
	// Repairs is the number of PPR events fired by this increment.
	Repairs int
}

// newManagedDevice builds the device and its session state.
func newManagedDevice(id string, spec DeviceSpec) (*Device, error) {
	eng, patrol, repair, err := spec.build()
	if err != nil {
		return nil, err
	}
	ed, err := engine.NewDevice(eng)
	if err != nil {
		return nil, err
	}
	return &Device{
		ID:         id,
		Name:       spec.Name,
		dev:        ed,
		patrol:     patrol,
		repair:     repair,
		stats:      newStatsStore(repair.CEWindowSec),
		scrubs:     map[string]*scrubJob{},
		policyName: eng.Policy.Name(),
		registered: time.Now(),
		kick:       make(chan struct{}, 1),
	}, nil
}

// wake nudges the session loop without blocking.
func (d *Device) wake() {
	select {
	case d.kick <- struct{}{}:
	default:
	}
}

// Patrol returns the current patrol configuration.
func (d *Device) Patrol() PatrolConfig {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.patrol
}

// ApplyPatch merges a patrol patch; the merged configuration governs the
// session from its next chunk boundary (ticks read config at chunk
// start). The session itself is never restarted: clock, cursor, wear,
// and error statistics all survive reconfiguration.
func (d *Device) ApplyPatch(p PatrolPatch) (PatrolConfig, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	next := d.patrol
	if p.RateLinesPerSec != nil {
		next.RateLinesPerSec = *p.RateLinesPerSec
	}
	if p.ChunkLines != nil {
		next.ChunkLines = *p.ChunkLines
	}
	if p.TickMillis != nil {
		next.TickMillis = *p.TickMillis
	}
	if p.Paused != nil {
		next.Paused = *p.Paused
	}
	if next.ChunkLines > d.dev.Lines() {
		next.ChunkLines = d.dev.Lines()
	}
	if err := next.Validate(); err != nil {
		return d.patrol, err
	}
	if p.Policy != nil {
		pol, err := policyByName(*p.Policy)
		if err != nil {
			return d.patrol, err
		}
		if err := d.dev.SetPolicy(pol); err != nil {
			return d.patrol, err
		}
		d.policyName = pol.Name()
	}
	d.patrol = next
	d.wake()
	return next, nil
}

// EnqueueScrub queues an on-demand region scrub; the session serves it at
// its next chunk boundary, ahead of background patrol.
func (d *Device) EnqueueScrub(id string, req ScrubRequest) (ScrubView, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if req.First < 0 || req.Count <= 0 || req.Count > d.dev.Lines()-req.First {
		return ScrubView{}, fmt.Errorf("fleet: scrub range [%d,+%d) outside device [0,%d)",
			req.First, req.Count, d.dev.Lines())
	}
	j := &scrubJob{
		id:     id,
		state:  ScrubQueued,
		report: RegionReport{First: req.First, Count: req.Count},
	}
	d.queue = append(d.queue, j)
	d.scrubs[id] = j
	d.order = append(d.order, id)
	d.wake()
	return d.scrubViewLocked(j), nil
}

// Scrub returns one on-demand job's view.
func (d *Device) Scrub(id string) (ScrubView, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	j, ok := d.scrubs[id]
	if !ok {
		return ScrubView{}, false
	}
	return d.scrubViewLocked(j), true
}

// Scrubs lists the device's on-demand jobs in submission order.
func (d *Device) Scrubs() []ScrubView {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]ScrubView, 0, len(d.order))
	for _, id := range d.order {
		out = append(out, d.scrubViewLocked(d.scrubs[id]))
	}
	return out
}

func (d *Device) scrubViewLocked(j *scrubJob) ScrubView {
	return ScrubView{ID: j.id, Device: d.ID, State: j.state, Report: j.report}
}

// Repairs returns the device's repair-event log.
func (d *Device) Repairs() []RepairEvent {
	d.mu.Lock()
	defer d.mu.Unlock()
	return append([]RepairEvent(nil), d.repairs...)
}

// Telemetry snapshots the error-statistics store (limit > 0 keeps the
// worst offenders only).
func (d *Device) Telemetry(limit int) []LineTelemetry {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.stats.snapshot(limit)
}

// Tick performs one session increment at the current configuration: the
// head of the on-demand queue if any (preempting patrol at exactly this
// chunk granularity), else one background patrol chunk. It is the single
// place simulated time advances, for both the live session goroutine and
// deterministic test drivers.
func (d *Device) Tick() TickOutcome {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.removed {
		return TickOutcome{}
	}
	cfg := d.patrol
	dt := float64(cfg.ChunkLines) / cfg.RateLinesPerSec
	var out TickOutcome
	if len(d.queue) > 0 {
		j := d.queue[0]
		j.state = ScrubRunning
		remaining := j.report.Count - j.report.LinesScrubbed
		n := cfg.ChunkLines
		if n > remaining {
			n = remaining
			dt = float64(n) / cfg.RateLinesPerSec
		}
		rep, err := d.dev.ScrubRange(j.report.First+j.report.LinesScrubbed, n, dt, d.obsBuf)
		if err != nil {
			// Ranges are validated at submission; an error here means the
			// job can never run. Close it out rather than spinning.
			j.state = ScrubDone
			d.queue = d.queue[1:]
			return TickOutcome{Worked: true, ScrubID: j.id}
		}
		d.obsBuf = rep.Observations
		fired := d.foldLocked(rep, "scrub:"+j.id)
		j.report.LinesScrubbed += n
		j.report.Chunks++
		j.report.CELines += rep.CELines
		j.report.UEs += rep.UEs
		j.report.CorrectedBits += rep.CorrectedBits
		j.report.WriteBacks += rep.WriteBacks
		j.report.SimSeconds += rep.SimSeconds
		j.report.RepairsTriggered += int64(fired)
		d.scrubChunks++
		d.chunks++
		if !cfg.Paused {
			d.preemptions++
			out.Preempted = true
		}
		if j.report.LinesScrubbed >= j.report.Count {
			j.state = ScrubDone
			d.queue = d.queue[1:]
		}
		out.Worked = true
		out.ScrubID = j.id
		out.Repairs = fired
		return out
	}
	if cfg.Paused {
		return TickOutcome{}
	}
	rep, err := d.dev.PatrolChunk(cfg.ChunkLines, dt, d.obsBuf)
	if err != nil {
		return TickOutcome{}
	}
	d.obsBuf = rep.Observations
	fired := d.foldLocked(rep, "patrol")
	d.patrolChunks++
	d.chunks++
	out.Worked = true
	out.Repairs = fired
	return out
}

// foldLocked folds one increment's observations into the statistics
// store and fires the repair engine: a line whose sliding-window CE
// count reaches the threshold is spared (fresh endurance, clean
// history), bounded by the spare budget. Returns repairs fired.
// Caller holds d.mu.
func (d *Device) foldLocked(rep engine.ChunkReport, trigger string) int {
	now := d.dev.Now()
	fired := 0
	for _, ob := range rep.Observations {
		if ob.UE {
			d.stats.observeUE(ob.Line, now)
			continue
		}
		windowed := d.stats.observeCE(ob.Line, now)
		if d.repair.Disabled || windowed < d.repair.CEThreshold {
			continue
		}
		if d.repair.SpareBudget >= 0 && d.sparesUsed >= d.repair.SpareBudget {
			continue // spares exhausted; telemetry keeps accumulating
		}
		if err := d.dev.RepairLine(ob.Line); err != nil {
			continue
		}
		d.stats.noteRepaired(ob.Line)
		d.sparesUsed++
		fired++
		d.repairs = append(d.repairs, RepairEvent{
			Seq:           len(d.repairs) + 1,
			Line:          ob.Line,
			DeviceSeconds: now,
			WindowCEs:     windowed,
			Threshold:     d.repair.CEThreshold,
			Trigger:       trigger,
		})
	}
	return fired
}

// DeviceView is a device's externally visible state.
type DeviceView struct {
	ID     string       `json:"id"`
	Name   string       `json:"name,omitempty"`
	Lines  int          `json:"lines"`
	Policy string       `json:"policy"`
	Patrol PatrolConfig `json:"patrol"`
	Repair RepairConfig `json:"repair"`

	// DeviceSeconds is the simulated clock; PatrolRounds counts
	// completed passes; Cursor is the patrol position.
	DeviceSeconds float64 `json:"device_seconds"`
	PatrolRounds  int64   `json:"patrol_rounds"`
	Cursor        int     `json:"cursor"`

	// Work and findings since registration.
	Chunks        int64 `json:"chunks"`
	PatrolChunks  int64 `json:"patrol_chunks"`
	ScrubChunks   int64 `json:"scrub_chunks"`
	Preemptions   int64 `json:"preemptions"`
	ScrubVisits   int64 `json:"scrub_visits"`
	DemandWrites  int64 `json:"demand_writes"`
	CorrectedBits int64 `json:"corrected_bits"`
	CEObserved    int64 `json:"ce_observed"`
	UEObserved    int64 `json:"ue_observed"`
	Repairs       int   `json:"repairs"`
	SparesUsed    int   `json:"spares_used"`
	SpareBudget   int   `json:"spare_budget"`
	PendingScrubs int   `json:"pending_scrubs"`
}

// View renders the device.
func (d *Device) View() DeviceView {
	d.mu.Lock()
	defer d.mu.Unlock()
	tot := d.dev.Totals()
	return DeviceView{
		ID:            d.ID,
		Name:          d.Name,
		Lines:         d.dev.Lines(),
		Policy:        d.policyName,
		Patrol:        d.patrol,
		Repair:        d.repair,
		DeviceSeconds: d.dev.Now(),
		PatrolRounds:  d.dev.Rounds(),
		Cursor:        d.dev.PatrolCursor(),
		Chunks:        d.chunks,
		PatrolChunks:  d.patrolChunks,
		ScrubChunks:   d.scrubChunks,
		Preemptions:   d.preemptions,
		ScrubVisits:   tot.ScrubVisits,
		DemandWrites:  tot.DemandWrites,
		CorrectedBits: tot.CorrectedBits,
		CEObserved:    d.stats.totalCE,
		UEObserved:    d.stats.totalUE,
		Repairs:       len(d.repairs),
		SparesUsed:    d.sparesUsed,
		SpareBudget:   d.repair.SpareBudget,
		PendingScrubs: len(d.queue),
	}
}

// tickInterval returns the current wall pacing between increments.
func (d *Device) tickInterval() time.Duration {
	d.mu.Lock()
	defer d.mu.Unlock()
	return time.Duration(d.patrol.TickMillis) * time.Millisecond
}

// isRemoved reports whether the device has been dropped from the fleet.
func (d *Device) isRemoved() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.removed
}

// hasWork reports whether an increment would do anything right now.
func (d *Device) hasWork() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return !d.removed && (len(d.queue) > 0 || !d.patrol.Paused)
}

// markRemoved stops future ticks from mutating the device.
func (d *Device) markRemoved() {
	d.mu.Lock()
	d.removed = true
	d.mu.Unlock()
	d.wake()
}
