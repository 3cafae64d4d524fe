package engine

import (
	"context"
	"fmt"
	"math"
	"time"

	"repro/internal/ecc"
	"repro/internal/ecp"
	"repro/internal/energy"
	"repro/internal/fault"
	"repro/internal/level"
	"repro/internal/mem"
	"repro/internal/ondie"
	"repro/internal/pcm"
	"repro/internal/scrub"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/wear"
)

// visitStride bounds cancellation latency inside a substep: ctx.Err() is
// polled every visitStride scrub visits, so a cancelled run stops within
// O(visitStride) visits even when a single substep covers millions of
// lines.
const visitStride = 256

// secdedLike lets the engine charge per-word decode cost for
// word-organised codes without depending on the concrete type.
type secdedLike interface{ Words() int }

// state is the mutable simulation state. Instances are recycled through
// statePool (see pool.go).
type state struct {
	spec    Spec
	rng     *stats.RNG
	genRNG  *stats.RNG // scratch stream for generator construction
	sampler *pcm.LineSampler
	wearM   *wear.Model
	acct    *energy.Accountant
	source  TrafficSource
	scheme  ecc.Scheme
	policy  scrub.Policy

	lines int // logical lines
	slots int // physical slots (lines, or lines+1 with leveling)
	k     int // tracked crossings per line
	kw    int // tracked weakest cells per line

	lev     *level.StartGap // nil when leveling is off
	moveBuf []level.Move

	// inj is the scrub-path fault injector; nil means the fault path is
	// entirely absent (the bit-identical baseline). stuckCheck holds the
	// per-slot correction margin lost to stuck ECC check bits (populated
	// only when inj is non-nil).
	inj        *fault.Injector
	stuckCheck []uint8

	// ondie is the chip-internal ECC layer; nil means no on-die code (the
	// bit-identical baseline). prof is the active-profiling state, present
	// only when the policy is a scrub.Profiler. Neither ever touches the
	// RNG stream.
	ondie *ondie.Layer
	prof  *profiler

	writeTime  []float64
	crossings  []float64 // lines × k, absolute seconds; +Inf padding
	crossCount []uint8   // valid entries; == k means "at least k"
	writes     []uint32
	weakest    []float64 // lines × kw, ascending
	stuckBits  []uint8
	deadCells  []uint8

	visitOrder []int32

	dataBits, checkBits int
	hasCRC              bool

	// spans is spec.Hooks.Spans, or nil; its methods are nil-safe.
	spans *SpanRecorder

	// Trace-mode codec-kernel exercise (all nil/zero outside trace runs).
	// The reliability model itself is count-based; when spans are enabled
	// and the scheme is backed by a real line codec, each modelled decode
	// additionally runs the word-parallel kernel pipeline on a scratch
	// codeword carrying the observed error count, timed under
	// StageKernel. Deterministic (no RNG) and result-free, so an
	// instrumented run's Result is identical to a plain run's.
	kernCodec ecc.LineCodec
	kernCRC   *ecc.CRC16
	kernData  []byte // pristine 64-byte payload
	kernOrig  []byte // pristine encoded line
	kernBuf   []byte // per-decode scratch copy
	kernSeq   uint64 // deterministic flip-position stream

	res Result

	// scratch buffers
	crossBuf []float64
	eventBuf []int
	weakBuf  []float64
}

// init prepares s for a run of spec, re-sizing its recycled scratch and
// drawing the drift sampler from the shared cache.
func (s *state) init(spec Spec) error {
	if spec.Substeps == 0 {
		spec.Substeps = 16
	}
	k := spec.TrackK
	if k == 0 {
		k = spec.Scheme.T() + 4
		if k < 8 {
			k = 8
		}
		if k > 16 {
			k = 16
		}
	}
	s.rng.Seed(spec.Seed)
	sampler, err := cachedSampler(spec.PCM, spec.Mix, k)
	if err != nil {
		return err
	}
	wearM, err := wear.NewModel(spec.Wear)
	if err != nil {
		return err
	}
	acct, err := energy.NewAccountant(spec.Energy)
	if err != nil {
		return err
	}
	lines := spec.Geometry.TotalLines()
	var source TrafficSource
	if spec.Source != nil {
		source = spec.Source
	} else {
		// Generator layout draws from a stream split off the main RNG
		// into the state's scratch RNG, consuming the same single Uint64
		// from the main stream as Split would.
		s.rng.SplitInto(s.genRNG)
		gen, err := trace.NewGenerator(spec.Workload, lines, s.genRNG)
		if err != nil {
			return err
		}
		source = gen
	}
	slots := lines
	var lev *level.StartGap
	if spec.GapMovePeriod > 0 {
		lev, err = level.NewStartGap(lines, spec.GapMovePeriod)
		if err != nil {
			return err
		}
		slots = lev.Slots()
	}
	s.spec = spec
	s.sampler = sampler
	s.wearM = wearM
	s.acct = acct
	s.source = source
	s.scheme = spec.Scheme
	s.policy = spec.Policy
	s.lines = lines
	s.slots = slots
	s.k = k
	s.kw = spec.Wear.K
	s.lev = lev
	s.spans = nil
	if spec.Hooks != nil {
		s.spans = spec.Hooks.Spans
	}

	s.writeTime = growF64(s.writeTime, slots)
	s.crossings = growF64(s.crossings, slots*k)
	s.crossCount = growU8(s.crossCount, slots)
	s.writes = growU32(s.writes, slots)
	s.weakest = growF64(s.weakest, slots*spec.Wear.K)
	s.stuckBits = growU8(s.stuckBits, slots)
	s.deadCells = growU8(s.deadCells, slots)

	s.dataBits = spec.Scheme.DataBits()
	s.checkBits = spec.Scheme.CheckBits()
	s.hasCRC = spec.Policy.Detection() == scrub.LightDetect

	// Trace-mode kernel exercise: pre-encode one scratch line so visits
	// can time real kernel decodes without perturbing the model.
	s.kernCodec = nil
	s.kernCRC = nil
	s.kernSeq = spec.Seed
	if s.spans != nil {
		if lc, ok := spec.Scheme.(ecc.LineCodec); ok {
			if cap(s.kernData) >= ecc.LineBytes {
				s.kernData = s.kernData[:ecc.LineBytes]
			} else {
				s.kernData = make([]byte, ecc.LineBytes)
			}
			for i := range s.kernData {
				s.kernData[i] = byte(2*i + 1)
			}
			if orig, err := lc.EncodeLine(s.kernData); err == nil {
				s.kernCodec = lc
				s.kernOrig = orig
				if cap(s.kernBuf) >= len(orig) {
					s.kernBuf = s.kernBuf[:len(orig)]
				} else {
					s.kernBuf = make([]byte, len(orig))
				}
			}
		}
		if s.hasCRC {
			s.kernCRC = traceCRC
		}
	}

	// Patrol order over physical slots, fixed for the run. With leveling
	// the spare slot is appended to the walk (and the live gap is skipped
	// at visit time).
	if cap(s.visitOrder) >= slots {
		s.visitOrder = s.visitOrder[:0]
	} else {
		s.visitOrder = make([]int32, 0, slots)
	}
	walker := mem.NewScrubWalker(spec.Geometry)
	for i := 0; i < lines; i++ {
		line, _ := walker.Next()
		s.visitOrder = append(s.visitOrder, int32(line))
	}
	for extra := lines; extra < slots; extra++ {
		s.visitOrder = append(s.visitOrder, int32(extra))
	}
	// Scrub-path fault injection (nil injector = bit-identical baseline).
	inj, err := fault.NewInjector(spec.Fault, spec.Seed)
	if err != nil {
		return err
	}
	s.inj = inj
	if inj != nil {
		// Stuck check bits are a property of the physical slot, rolled
		// once for the whole run from the injector's own stream.
		s.stuckCheck = growU8(s.stuckCheck, slots)
		for i := 0; i < slots; i++ {
			s.stuckCheck[i] = uint8(inj.LineStuckCheck())
		}
	}
	// Initialise slots: endurance draws, pre-aging, initial write at t=0.
	for i := 0; i < slots; i++ {
		s.freshCells(i, spec.InitialLineWrites, 0)
	}
	// On-die ECC layer and active-profiling state. Both are RNG-free, so
	// their presence cannot perturb the run's random stream; nil layer +
	// nil profiler is the byte-identical baseline. The initial Luo
	// assignment works off the uniform post-init write census, weakening
	// the lowest-numbered lines until real traffic differentiates them.
	layer, err := ondie.NewLayer(spec.OnDie, slots)
	if err != nil {
		return err
	}
	s.ondie = layer
	if layer != nil {
		layer.Assign(s.writes[:slots])
	}
	if pp, ok := spec.Policy.(scrub.Profiler); ok {
		cfg := pp.Profile()
		if err := cfg.Validate(); err != nil {
			return err
		}
		s.prof = newProfiler(cfg)
	} else {
		s.prof = nil
	}
	s.res.PolicyName = spec.Policy.Name()
	s.res.SchemeName = spec.Scheme.Name()
	s.res.WorkloadName = spec.Workload.Name
	s.res.Lines = lines
	return nil
}

// codewordBits returns the bits occupied by one encoded line, including
// the CRC when light detection is configured.
func (s *state) codewordBits() int {
	bits := s.dataBits + s.checkBits
	if s.hasCRC {
		bits += crcBits
	}
	if s.spec.ECPEntries > 0 {
		// The pointer table travels with the line: its bits are read and
		// rewritten alongside the data.
		p := ecp.Params{
			Entries:      s.spec.ECPEntries,
			CellsPerLine: pcm.CellsPerLine,
			BitsPerCell:  pcm.BitsPerCell,
		}
		bits += p.OverheadBits()
	}
	return bits
}

// freshCells gives slot i new cells: fresh endurance draws and a prior
// write count of writes, then the initial write at time t.
func (s *state) freshCells(i int, writes uint32, t float64) {
	s.weakBuf = s.wearM.SampleWeakest(s.rng, s.weakBuf)
	copy(s.weakest[i*s.kw:(i+1)*s.kw], s.weakBuf)
	s.writes[i] = writes
	s.writeLine(i, t)
}

// writeLine reprograms a line at absolute time t: resets its drift clock,
// samples fresh crossing times, advances wear, and re-rolls stuck bits.
// Energy is charged by the caller (demand vs scrub attribution).
func (s *state) writeLine(i int, t float64) {
	s.writes[i]++
	s.writeTime[i] = t
	base := i * s.k
	if s.spec.SLCFraction > 0 && s.rng.Bernoulli(s.spec.SLCFraction) {
		// Form switch: this write compressed the line into SLC form,
		// whose band separation puts drift crossings beyond the horizon.
		for j := 0; j < s.k; j++ {
			s.crossings[base+j] = math.Inf(1)
		}
		s.crossCount[i] = 0
	} else {
		s.crossBuf = s.sampler.SampleCrossings(s.rng, s.crossBuf)
		for j := 0; j < s.k; j++ {
			if j < len(s.crossBuf) {
				s.crossings[base+j] = t + s.crossBuf[j]
			} else {
				s.crossings[base+j] = math.Inf(1)
			}
		}
		s.crossCount[i] = uint8(len(s.crossBuf))
	}
	dead := wear.DeadCells(s.weakest[i*s.kw:(i+1)*s.kw], uint64(s.writes[i]))
	// ECP patches the first ECPEntries stuck cells before ECC sees the
	// line; only the residual erodes the correction margin, and the
	// wear-aware policy reasons about that residual.
	_, residual := ecp.Absorb(s.spec.ECPEntries, dead)
	s.deadCells[i] = uint8(residual)
	_, bits := wear.StuckErrors(s.rng, residual)
	if bits > 255 {
		bits = 255
	}
	s.stuckBits[i] = uint8(bits)
}

// drift returns how many of line i's tracked drift crossings have
// happened by time t.
func (s *state) drift(i int, t float64) int {
	base := i * s.k
	n := int(s.crossCount[i])
	d := 0
	for d < n && s.crossings[base+d] <= t { // crossings are sorted ascending
		d++
	}
	return d
}

// attributeDetection estimates, for a UE found by this scrub visit, how
// long the line had been uncorrectable and whether a demand read would
// have hit it first. Onset is approximated by the drift crossing that
// completed the failing pattern (the (capability+1-stuck)-th, clamped to
// the drift crossings observed so far); the read race uses the workload's
// average per-footprint-line read rate, thinned by the footprint
// fraction.
func (s *state) attributeDetection(i int, t float64, capability, drift int) {
	onset := s.writeTime[i]
	if drift > 0 {
		d := capability + 1 - int(s.stuckBits[i])
		if d < 1 {
			d = 1
		}
		if d > drift {
			d = drift
		}
		onset = s.crossings[i*s.k+d-1]
	}
	delay := t - onset
	if delay < 0 {
		delay = 0
	}
	s.res.UEDetectDelay.Add(delay)
	lambda := s.spec.Workload.ReadsPerLinePerSec
	if lambda > 0 && s.rng.Bernoulli(s.spec.Workload.FootprintFrac) &&
		s.rng.Bernoulli(-math.Expm1(-lambda*delay)) {
		s.res.UEsReadFirst++
	}
}

// mapSlot resolves a logical line to its current physical slot.
func (s *state) mapSlot(logical int) int {
	if s.lev == nil {
		return logical
	}
	return s.lev.Physical(logical)
}

// recordArrayWrite advances the wear leveler's write counter and performs
// any gap moves it triggers: each move rewrites the destination slot now
// (fresh drift clock, wear, energy). Gap-move writes themselves do not
// advance the counter, matching the Start-Gap design.
func (s *state) recordArrayWrite(t float64) {
	if s.lev == nil {
		return
	}
	s.moveBuf = s.lev.RecordWrites(1, s.moveBuf)
	for _, mv := range s.moveBuf {
		s.writeLine(mv.To, t)
		s.acct.LineWrite(&s.res.DemandEnergy, s.codewordBits())
		s.res.LevelerMoves++
	}
}

// chargeDecode charges the scheme's full decode cost to the ledger.
func (s *state) chargeDecode(l *energy.Ledger) {
	if ws, ok := s.scheme.(secdedLike); ok {
		s.acct.SECDEDDecode(l, ws.Words())
	} else {
		s.acct.BCHDecode(l, s.scheme.T())
	}
}

// traceCRC is the CRC kernel shared by trace-mode probe exercises; built
// once, immutable, safe for concurrent runs.
var traceCRC = ecc.NewCRC16()

// kernelProbe times one real CRC-16 probe over the scratch payload under
// StageKernel. No-op outside trace mode.
func (s *state) kernelProbe() {
	if s.kernCRC == nil {
		return
	}
	start := time.Now()
	_ = s.kernCRC.Sum(s.kernData)
	s.spans.observe(StageKernel, start, 1)
}

// kernelDecode times one real kernel line decode under StageKernel: the
// scratch codeword gets min(observed, T) deterministic bit flips spread
// across the line (so per-word codes see at most one per word) and runs
// through the scheme's word-parallel DecodeLine. No-op outside trace
// mode; draws no randomness and writes no Result fields.
func (s *state) kernelDecode(observed int) {
	lc := s.kernCodec
	if lc == nil {
		return
	}
	start := time.Now()
	buf := s.kernBuf[:len(s.kernOrig)]
	copy(buf, s.kernOrig)
	nf := observed
	if t := lc.T(); nf > t {
		nf = t
	}
	if nf > 0 {
		bits := lc.DataBits() + lc.CheckBits()
		stride := bits / nf
		s.kernSeq = s.kernSeq*6364136223846793005 + 1442695040888963407
		off := int(s.kernSeq>>33) % stride
		for j := 0; j < nf; j++ {
			pos := j*stride + off
			buf[pos>>3] ^= 1 << uint(pos&7)
		}
	}
	_, _ = lc.DecodeLine(buf)
	s.spans.observe(StageKernel, start, 1)
}

// visitOutcome is what one scrub visit saw and did.
type visitOutcome struct {
	// errBits is the error count visible to the controller: real errors
	// after the on-die layer, before injected read faults.
	errBits   int
	ue        bool
	wroteBack bool
}

// visit performs one scrub visit of line i at time t.
//
// With fault injection enabled, the visit distinguishes the line's true
// error count (errBits) from what the imperfect scrub machinery observes
// (observed): phantom read flips inflate the observation transiently, and
// stuck check bits erode the decode margin. Detection, write-back, and UE
// decisions all act on the observation — exactly as real hardware would —
// while CorrectedBits keeps counting real bits so reliability metrics
// stay truthful. When the injector is nil, observed == errBits on every
// path and the visit is bit-identical to the baseline.
//
// Span instrumentation (s.spans) never touches the RNG; with spans nil
// each span costs one predictable branch.
func (s *state) visit(i int, t float64, rs *scrub.RoundStats) visitOutcome {
	s.res.ScrubVisits++
	rs.Lines++
	drift := s.drift(i, t)
	errBits := drift + int(s.stuckBits[i])
	if s.ondie != nil {
		// The chip corrects before the controller looks: everything below
		// — detection, write-back, UE decisions, corrected-bit accounting
		// — sees only the post-on-die error count. The transform draws no
		// randomness, so a disabled layer is byte-identical.
		start := s.spans.start()
		errBits = s.ondie.Observe(i, errBits)
		s.spans.observe(StageOnDie, start, 1)
	}
	out := visitOutcome{errBits: errBits}
	observed := errBits
	if s.inj != nil {
		observed += s.inj.ReadFlip()
	}

	light := s.policy.Detection() == scrub.LightDetect
	if light {
		// Read data + CRC, run the cheap probe (trace mode also times a
		// real CRC kernel pass under StageKernel).
		s.kernelProbe()
		start := s.spans.start()
		s.acct.LineRead(&s.res.ScrubEnergy, s.dataBits+crcBits)
		s.acct.CRCCheck(&s.res.ScrubEnergy)
		s.res.ScrubProbes++
		// A clean line, an aliased checksum, or an injected detector
		// fault all read clean: errors stay until the next look.
		clean := observed == 0 || s.rng.Bernoulli(crcMissProb) ||
			(s.inj != nil && s.inj.ProbeFalseClean())
		s.spans.observe(StageProbe, start, 1)
		if clean {
			return out
		}
	}
	// Full decode (always under FullDecode; on probe escalation under
	// LightDetect): fetch what the probe did not read and decode.
	start := s.spans.start()
	if light {
		s.acct.LineRead(&s.res.ScrubEnergy, s.checkBits)
	} else {
		s.acct.LineRead(&s.res.ScrubEnergy, s.dataBits+s.checkBits)
	}
	s.chargeDecode(&s.res.ScrubEnergy)
	s.res.ScrubDecodes++
	s.spans.observe(StageDecode, start, 1)
	s.kernelDecode(observed)

	// Stuck ECC check bits corrupt the syndromes the decoder works
	// against, eroding the line's effective correction margin.
	if s.inj != nil && s.stuckCheck[i] > 0 {
		if errBits > 0 {
			s.inj.NoteStuckDecode()
		}
		observed += int(s.stuckCheck[i])
	}

	if observed > s.res.MaxErrBits {
		s.res.MaxErrBits = observed
	}
	if observed > rs.MaxErrBits {
		rs.MaxErrBits = observed
	}
	capability := s.scheme.T()
	if observed > 0 && observed >= capability-1 {
		rs.LinesNearMargin++
	}
	if observed > 0 && !s.scheme.Correctable(s.rng, observed) {
		// Uncorrectable: count the UE and repair the line so the excursion
		// is counted exactly once.
		start := s.spans.start()
		s.res.UEs++
		rs.UEs++
		if s.inj != nil && observed != errBits && errBits <= capability {
			// Only the injected fault pushed the pattern past the margin.
			s.inj.NoteInducedUE()
		}
		s.attributeDetection(i, t, capability, drift)
		s.writeLine(i, t)
		s.acct.LineWrite(&s.res.ScrubEnergy, s.codewordBits())
		s.res.RepairWrites++
		s.recordArrayWrite(t)
		s.spans.observe(StageRepair, start, 1)
		out.ue = true
		return out
	}
	// Clean lines reach here only under FullDecode (the light probe
	// returns early); policies with a write threshold >= 1 leave them
	// alone, while the naive always-write patrol rewrites them too.
	info := scrub.VisitInfo{ErrBits: observed, Capability: capability, DeadCells: int(s.deadCells[i])}
	if s.policy.ShouldWriteBack(info) {
		start := s.spans.start()
		s.res.CorrectedBits += int64(errBits)
		s.writeLine(i, t)
		s.acct.LineWrite(&s.res.ScrubEnergy, s.codewordBits())
		s.res.ScrubWriteBacks++
		rs.WriteBacks++
		s.recordArrayWrite(t)
		s.spans.observe(StageWriteBack, start, 1)
		out.wroteBack = true
	}
	return out
}

// applyDemand lands the traffic source's writes for [t0, t0+dt) at
// uniform times inside the window and returns how many landed. Both the
// sweep loop (ahead of each substep's visits) and Device increments call
// it.
func (s *state) applyDemand(t0, dt float64) int {
	start := s.spans.start()
	s.eventBuf = s.source.WritesInEpoch(s.rng, t0, dt, s.eventBuf)
	for _, line := range s.eventBuf {
		tw := t0 + s.rng.Float64()*dt
		s.writeLine(s.mapSlot(line), tw)
		s.acct.LineWrite(&s.res.DemandEnergy, s.codewordBits())
		s.res.DemandWrites++
		s.recordArrayWrite(tw)
	}
	s.spans.observe(StageDemand, start, int64(len(s.eventBuf)))
	return len(s.eventBuf)
}

// isGap reports whether slot is the leveler's live gap, which holds
// stale data and is never visited.
func (s *state) isGap(slot int) bool {
	return s.lev != nil && slot == s.lev.Gap()
}

// patrolTarget resolves the patrol visit at position pos of the visit
// order. ok is false when that slot is the gap. Otherwise every
// period-th visit is re-aimed at an at-risk line when profiling is on:
// the visit count is unchanged, so biased scheduling spends the same
// scrub bandwidth.
func (s *state) patrolTarget(pos int) (slot int, ok bool) {
	slot = int(s.visitOrder[pos])
	if s.isGap(slot) {
		return 0, false
	}
	if s.prof != nil {
		if r := s.prof.redirect(); r >= 0 && !s.isGap(r) {
			slot = r
			s.prof.redirected++
		}
	}
	return slot, true
}

// run executes sweeps until the horizon. Cancellation is checked every
// substep and every visitStride visits within a substep, so the method
// returns within O(visitStride) visits of ctx ending.
func (s *state) run(ctx context.Context) error {
	t := 0.0
	interval := s.spec.Interval
	sinceCheck := 0
	for t+interval <= s.spec.Horizon+1e-9 {
		// Injected controller faults: a stall stretches this sweep's
		// duration (drift accumulates longer between visits), and an
		// interruption silently drops the patrol suffix past the cutoff.
		sweepDur := interval
		cutoff := s.slots
		if s.inj != nil {
			if f := s.inj.StallFactor(); f > 1 {
				sweepDur = interval * f
				s.inj.NoteStallSeconds(sweepDur - interval)
			}
			cutoff = s.inj.SweepCutoff(s.slots)
		}
		rs := scrub.RoundStats{Capability: s.scheme.T()}
		dt := sweepDur / float64(s.spec.Substeps)
		perStep := (s.slots + s.spec.Substeps - 1) / s.spec.Substeps
		for step := 0; step < s.spec.Substeps; step++ {
			if err := ctx.Err(); err != nil {
				return fmt.Errorf("engine: run canceled at t=%.0fs: %w", t, err)
			}
			// Demand writes land before this substep's visits.
			s.applyDemand(t+float64(step)*dt, dt)
			// Scrub visits for this slice of the patrol order.
			lo := step * perStep
			hi := min(lo+perStep, s.slots, cutoff) // past cutoff: sweep interrupted
			for pos := lo; pos < hi; pos++ {
				if sinceCheck++; sinceCheck >= visitStride {
					sinceCheck = 0
					if err := ctx.Err(); err != nil {
						return fmt.Errorf("engine: run canceled at t=%.0fs: %w", t, err)
					}
				}
				if slot, ok := s.patrolTarget(pos); ok {
					s.visit(slot, t+sweepDur*float64(pos)/float64(s.slots), &rs)
				}
			}
		}
		t += sweepDur
		s.res.Sweeps++
		start := s.spans.start()
		round := RoundRecord{Start: t - sweepDur, Interval: sweepDur, Stats: rs}
		if s.spec.RecordRounds {
			s.res.Rounds = append(s.res.Rounds, round)
		}
		interval = s.policy.NextInterval(interval, rs)
		s.spans.observe(StageControl, start, 1)
		s.maybeProfile(t)
		if h := s.spec.Hooks; h != nil {
			if h.Round != nil {
				h.Round(round)
			}
			if h.Progress != nil {
				h.Progress(s.res.Sweeps, t, s.spec.Horizon)
			}
		}
	}
	s.res.SimSeconds = t
	s.res.FinalInterval = interval
	// Wear census over physical slots. deadCells holds the ECC-visible
	// residual, so recompute the raw stuck count for reporting.
	for i := 0; i < s.slots; i++ {
		s.res.TotalLineWrites += int64(s.writes[i])
		if s.writes[i] > s.res.MaxLineWrites {
			s.res.MaxLineWrites = s.writes[i]
		}
		dead := wear.DeadCells(s.weakest[i*s.kw:(i+1)*s.kw], uint64(s.writes[i]))
		if dead > 0 {
			s.res.LinesWithDead++
			s.res.DeadCells += int64(dead)
		}
		covered, _ := ecp.Absorb(s.spec.ECPEntries, dead)
		s.res.ECPCoveredCells += int64(covered)
	}
	if s.inj != nil {
		s.res.Faults = s.inj.Counts()
	}
	s.foldInstr(&s.res)
	return nil
}
